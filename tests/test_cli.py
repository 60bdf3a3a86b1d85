import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bettiforge import aci, cli
from bettiforge.aci import AciBetti, enumerate_admissible
from bettiforge.cli import main
from bettiforge.exact import _W


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


EX_ADMISSIBLE = json.dumps({"D": [4, 5, 5, 9], "E": [9, 9, 9, 11, 11, 11, 13], "F": [12, 12, 12, 14]})
EX_REJECTED = json.dumps(
    {"D": [3, 6, 6, 6], "E": [8, 8, 8, 10, 10, 10, 12, 12, 12, 12], "F": [9, 11, 11, 11, 13, 13, 13]}
)


def test_check_admissible(capsys):
    code, out, _ = run_cli(["check", "-"], EX_ADMISSIBLE, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True and data["stage"] is None
    assert data["mci"] == [5, 5, 7]


def test_check_rejected_stage3(capsys):
    code, out, _ = run_cli(["check", "-"], EX_REJECTED, capsys)
    assert code == 1
    data = json.loads(out)
    assert data["stage"] == 3
    assert data["witness"] == "(6,6,6) ≱ (5,5,7)"
    assert data["beta_G"]["gens"] == [5, 5, 5, 7, 7, 7, 9]


def test_check_explain(capsys):
    code, out, err = run_cli(["check", "-", "--explain"], EX_REJECTED, capsys)
    assert code == 1
    assert "stage 3" in err
    code, out, err = run_cli(["check", "-", "--explain"], EX_ADMISSIBLE, capsys)
    assert code == 0 and json.loads(out)["admissible"] is True
    assert err == "admissible: every stage of the decision procedure passed\n"


def test_broken_stdout_pipe_exits_0(monkeypatch):
    """A reader that closes the pipe early, as ``head`` does, ends the command quietly."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["mci", "--gens", "[1,1,1]"]) == 0


def test_check_malformed_json(capsys):
    code, _, err = run_cli(["check", "-"], "{truncated", capsys)
    assert code == 2 and "error" in err


def test_check_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["check", str(path)], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read JSON from {path}: 'utf-8' codec can't decode")


# Past the JSON decoder's recursion limit on every supported Python: 3.13
# decodes 5,000 levels, which 3.11 refused.
_NESTED_100000 = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["check", "-"], _NESTED_100000),
        (["check", "FILE"], None),
        (["pfaffian", "-"], _NESTED_100000),
        (["verify-structure", "--matrix", "FILE", "--g-rows", "1,2,3"], None),
        (["mci", "--gens", _NESTED_100000], None),
        (["gorenstein-check", "--gens", _NESTED_100000], None),
        (["link", "--gens", _NESTED_100000, "--theta", "5", "--ci", "[2,2,2]"], None),
        (["hilbert", "--ci", _NESTED_100000], None),
        (["hilbert", "--resolution", _NESTED_100000], None),
    ],
    ids=[
        "check-stdin",
        "check-file",
        "pfaffian",
        "verify-structure",
        "mci",
        "gorenstein-check",
        "link",
        "hilbert-ci",
        "hilbert-resolution",
    ],
)
def test_json_nested_too_deeply_is_invalid_input(argv, stdin_text, tmp_path, capsys):
    """Nesting past the decoder's recursion limit exits 2, never with a traceback or a verdict."""
    path = tmp_path / "nested.json"
    path.write_text(_NESTED_100000, encoding="utf-8")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run_cli(argv, stdin_text, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "arrays or objects nested too deeply" in err


def test_check_bad_shape(capsys):
    code, _, err = run_cli(["check", "-"], json.dumps({"D": [1, 2], "E": [], "F": []}), capsys)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("bad", [4.9, True, "4"], ids=["float", "bool", "string"])
def test_check_rejects_non_integer_degrees(bad, capsys):
    payload = json.loads(EX_ADMISSIBLE)
    payload["D"][0] = bad
    code, out, err = run_cli(["check", "-"], json.dumps(payload), capsys)
    assert code == 2 and out == "" and "integers" in err


def test_check_rejects_string_arrays(capsys):
    payload = dict(json.loads(EX_ADMISSIBLE), F="1214")
    code, out, err = run_cli(["check", "-"], json.dumps(payload), capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "text, kind",
    [("[[4, 5, 5, 9], [9], [12]]", "list"), ('"abc"', "str"), ("null", "NoneType"), ("5", "int")],
    ids=["array", "string", "null", "number"],
)
def test_check_refuses_json_that_is_not_an_object(text, kind, capsys):
    code, out, err = run_cli(["check", "-"], text, capsys)
    assert (code, out, err) == (2, "", f"error: expected an object with keys D, E, F, got {kind}\n")


def test_check_from_file(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(EX_ADMISSIBLE, encoding="utf-8")
    code, out, _ = run_cli(["check", str(path)], capsys=capsys)
    assert code == 0 and json.loads(out)["admissible"]


def test_mci(capsys):
    code, out, _ = run_cli(["mci", "--gens", "[5,5,5,7,7,7,9]"], capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"mci": [5, 5, 7], "theta": 15}


def test_mci_rejects_inadmissible(capsys):
    code, _, err = run_cli(["mci", "--gens", "[1,1,1,1,1]"], capsys=capsys)
    assert code == 2 and "error" in err


def test_gorenstein_check(capsys):
    code, out, _ = run_cli(["gorenstein-check", "--gens", "[2,2,2,2,2]"], capsys=capsys)
    assert code == 0 and json.loads(out)["theta"] == 5
    code, out, _ = run_cli(["gorenstein-check", "--gens", "[1,1,1,1,1]"], capsys=capsys)
    assert code == 1 and not json.loads(out)["admissible"]


def test_hilbert_resolution(capsys):
    code, out, _ = run_cli(
        ["hilbert", "--resolution", "[[2,2,2,2,2],[3,3,3,3,3],[5]]"], capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["values"] == [1, 3, 1]


def test_hilbert_ci(capsys):
    code, out, _ = run_cli(["hilbert", "--ci", "[2,2,8]"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["length"] == 32


@pytest.mark.parametrize(
    "argv",
    [
        ["gorenstein-check", "--gens", "[true,true,true]"],
        ["mci", "--gens", "[true,true,true]"],
        ["hilbert", "--ci", "[true,true,true]"],
        ["hilbert", "--resolution", "[[2,2,2,2,2],[3,3,3,3,3],[5.0]]"],
        ["hilbert", "--resolution", "[[true,true,true],[2,2,2],[3]]"],
    ],
    ids=["gorenstein-check", "mci", "hilbert-ci", "hilbert-float", "hilbert-bool"],
)
def test_integer_arrays_reject_bools_and_floats(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == "" and "error" in err


def test_hilbert_rejects_length_above_cap(capsys):
    code, out, err = run_cli(["hilbert", "--ci", "[1,1,20000]"], capsys=capsys)
    assert code == 2 and out == "" and "cap" in err


def test_hilbert_rejects_work_above_cap(capsys):
    # 3,333 twos in 3,333 variables: within the length cap, not the work cap
    code, out, err = run_cli(["hilbert", "--ci", json.dumps([2] * 3333), "--nvars", "3333"], capsys=capsys)
    assert code == 2 and out == "" and "additions, above the cap" in err


def test_hilbert_ci_length_cap_comes_before_the_koszul_table(capsys):
    # the powers of two 2^0 .. 2^19 have 2^20 distinct subset sums; the
    # length cap is checked on their sum before anything else
    degrees = json.dumps([2**i for i in range(20)])
    code, out, err = run_cli(["hilbert", "--ci", degrees], capsys=capsys)
    assert code == 2 and out == ""
    assert err == f"error: largest twist {2**20 - 1} plus nvars 3 needs {2**20 + 3} Hilbert values, above the cap of 10000\n"


def test_hilbert_ci_work_cap_comes_before_the_koszul_table(capsys):
    # 800 degrees alternating 1 and 2 are within both caps, and a complete
    # intersection in 3 variables has 3 degrees
    code, out, err = run_cli(["hilbert", "--ci", json.dumps([1, 2] * 400)], capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: 800 degrees in 3 variables: a complete intersection needs exactly one degree per variable\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hilbert", "--ci", "[1,1,1,1]"], "4 degrees in 3 variables"),
        (["hilbert", "--ci", "[2,2,2,2]"], "4 degrees in 3 variables"),
        (["hilbert", "--resolution", "[[1,1,1,1],[2,2,2,2,2,2],[3,3,3,3],[4]]"], "negative Hilbert value"),
        (["hilbert", "--resolution", "[[2,2,2,2],[4,4,4,4,4,4],[6,6,6,6],[8]]"], "negative Hilbert value"),
    ],
    ids=["ci-1111", "ci-2222", "resolution-1111", "resolution-2222"],
)
def test_hilbert_rejects_negative_values(argv, message, capsys):
    # four forms in three variables: the Koszul complex resolves nothing,
    # and its alternating sum goes negative; --ci refuses the count first
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ci", json.dumps(list(range(1, 141)))], "140 degrees in 3 variables"),
        (["--ci", json.dumps(list(range(-150, 0)))], "must be positive"),
        (["--ci", json.dumps(list(range(-300, 0)))], "must be positive"),
        (["--resolution", "[[-1000000000000]]", "--nvars", "5000"], "resolves no quotient"),
        (["--ci", "[1]", "--nvars", "9998"], "1 degrees in 9998 variables"),
        (["--resolution", "[]", "--nvars", "9999"], "Artinian"),
        (["--ci", "[1,1,1,1,1]", "--nvars", "4000"], "5 degrees in 4000 variables"),
        (["--ci", json.dumps([1] * 3000), "--nvars", "3"], "3000 degrees in 3 variables"),
        (["--ci", "[-4,4]", "--nvars", "1"], "must be positive, got -4"),
        (["--resolution", "[[-2,2],[0]]", "--nvars", "1"], "resolves no quotient"),
        (["--ci", "[2,2,2]", "--nvars", "0"], "nvars must be positive"),
    ],
    ids=[
        "ci-1-to-140",
        "ci-minus-150",
        "ci-minus-300",
        "resolution-huge-negative-twist",
        "ci-one-degree-9998-vars",
        "resolution-empty-9999-vars",
        "ci-five-ones-4000-vars",
        "ci-3000-ones",
        "ci-negative-degree",
        "resolution-surviving-negative-twist",
        "ci-zero-vars",
    ],
)
def test_hilbert_invalid_input_exits_2_at_once(argv, message, capsys):
    # each of these once took seconds to minutes, and the last two printed values
    start = time.perf_counter()
    code, out, err = run_cli(["hilbert", *argv], capsys=capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == "" and message in err


def test_hilbert_needs_one_source(capsys):
    code, _, err = run_cli(["hilbert"], capsys=capsys)
    assert code == 2


def test_pfaffian_even(capsys):
    code, out, _ = run_cli(["pfaffian", "-"], json.dumps([[0, "a"], ["-a", 0]]), capsys)
    assert code == 0 and json.loads(out)["pfaffian"] == "a"


def test_pfaffian_odd(capsys):
    payload = json.dumps([[0, "a", "b"], ["-a", 0, "c"], ["-b", "-c", 0]])
    code, out, _ = run_cli(["pfaffian", "-"], payload, capsys)
    assert code == 0
    assert json.loads(out)["submaximal_pfaffians"] == ["c", "-b", "a"]


def test_pfaffian_invalid_matrix(capsys):
    for matrix, message in (
        ([[0, 1], [1, 0]], "is not the negative of"),
        ({"twists": [1]}, 'matrix object needs an "entries" key'),
        ({"entries": [1, 2]}, "matrix entries must be an array of arrays"),
    ):
        code, out, err = run_cli(["pfaffian", "-"], json.dumps(matrix), capsys)
        assert code == 2 and out == "" and message in err, matrix


@pytest.mark.parametrize(
    "matrix",
    [[[0, 0.1], [-0.1, 0]], [[0, True], [-1, 0]], [[0, None], [None, 0]], [[0, "1/0"], ["-1/0", 0]]],
)
def test_pfaffian_rejects_non_rational_entries(matrix, capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps(matrix), capsys)
    assert code == 2
    assert out == "" and "3602879701896397/36028797018963968" not in err


def test_pfaffian_accepts_rational_strings(capsys):
    code, out, _ = run_cli(["pfaffian", "-"], json.dumps([[0, "1/3"], ["-1/3", 0]]), capsys)
    assert code == 0 and json.loads(out)["pfaffian"] == "1/3"


@pytest.mark.parametrize(
    "entry, shown",
    [("x^\u0663", "'\u0663'"), ("x^1_0", "'1_0'"), ("x^", "''")],
    ids=["unicode-digit", "underscore", "empty"],
)
def test_pfaffian_exponents_are_ascii_digits(entry, shown, capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, entry], ["-x^3", 0]]), capsys)
    assert code == 2 and out == ""
    assert "must be ASCII digits" in err and shown in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "entry, negated, printed",
    [
        ("\u0663*x", "-3*x", None),
        ("3_0*x", "-30*x", None),
        ("1/3*x", "-1/3*x", "1/3*x"),
        ("1.5*x", "-3/2*x", "3/2*x"),
    ],
    ids=["unicode-digit", "underscore", "fraction", "decimal"],
)
def test_pfaffian_coefficients_are_ascii(entry, negated, printed, capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, entry], [negated, 0]]), capsys)
    if printed is None:
        assert code == 2 and out == "" and "ASCII" in err
    else:
        assert code == 0 and json.loads(out)["pfaffian"] == printed


def test_pfaffian_coefficient_text_error_exits_2(capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, "1e-5*x"], ["-1e-5*x", 0]]), capsys)
    assert code == 2 and out == ""
    assert "coefficient must be an integer or a rational" in err and "Invalid literal" not in err


def test_commands_in_one_process_share_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    matrix = json.dumps([[0, "x", "y"], ["-x", 0, "z"], ["-y", "-z", 0]])
    calls = [
        (["check", "--explain", "-"], EX_REJECTED),
        (["pfaffian", "-"], matrix),
        (["check", "-"], EX_REJECTED),
        (["pfaffian", "-"], matrix),
    ]
    results = [run_cli(calls[0][0], calls[0][1], capsys)]
    after_first = len(built)
    results += [run_cli(argv, stdin_text, capsys) for argv, stdin_text in calls[1:]]
    assert len(built) == after_first  # no parser was built after the first call
    assert [r[0] for r in results] == [1, 0, 1, 0]
    assert results[0][1] == results[2][1] and results[1][1] == results[3][1]
    # --explain does not carry over to the next call
    assert "rejected at stage" in results[0][2] and results[2][2] == ""


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports bettiforge from this checkout; text output."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)


def test_import_and_parser_load_no_dataclasses_or_inspect():
    """Start-up stays cheap: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``."""
    code = (
        "import sys, bettiforge, bettiforge.cli\n"
        "bettiforge.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Prints the polynomial modules loaded after building the parser, after
# three numeric commands and after `pfaffian`, with the exit codes.
_STARTUP_CODE = """
import io, sys
import bettiforge, bettiforge.cli
from bettiforge.cli import build_parser, main

POLYNOMIAL = ("bettiforge.exact", "bettiforge.pfaffian", "bettiforge.structure", "fractions")

def loaded():
    return [name for name in POLYNOMIAL if name in sys.modules]

def run(argv, stdin_text=""):
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        return main(argv)
    finally:
        sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__

build_parser()
print(loaded())
codes = [
    run(["check", "-"], sys.argv[1]),
    run(["mci", "--gens", "[2, 2, 2]"]),
    run(["enumerate", "--max-degree", "6", "--max-f", "3"]),
]
print(codes, loaded())
print(run(["pfaffian", "-"], sys.argv[2]), loaded())
"""


def test_numeric_commands_load_no_polynomial_code():
    """``import bettiforge``, the parser, ``check``, ``mci`` and ``enumerate`` leave the polynomial modules unloaded.

    Only a fresh interpreter shows this: in this process other tests have
    loaded those modules already, so a missing deferred import would pass.
    """
    proc = _fresh_python(_STARTUP_CODE, EX_ADMISSIBLE, json.dumps([[0, "x"], ["-x", 0]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "[0, 0, 0] []",
        "0 ['bettiforge.exact', 'bettiforge.pfaffian', 'fractions']",
    ]


_EXPORTS = [
    "IntMultiset",
    "Poly",
    "PolyMatrix",
    "parse_poly",
    "parse_matrix",
    "variables",
    "AlternatingMatrix",
    "block_pfaffian",
    "congruence",
    "sign_bracket",
    "three_generator_embedding",
    "GorensteinBetti",
    "HilbertFn",
    "check_gorenstein_betti",
    "ci_index_sets",
    "hilbert_from_resolution",
    "hilbert_of_ci",
    "mci",
    "AciBetti",
    "AciDecomposition",
    "Verdict",
    "check_betti",
    "decompose",
    "enumerate_admissible",
    "induced_gorenstein",
    "link_betti",
    "AlternatingPresentation",
    "GradedComplex",
    "GradedFreeModule",
    "build_aci_complex",
    "colon_generators",
    "verify_complex",
]

# Prints one line per failed property of the lazily resolved package
# surface, and "ok" last.
_SURFACE_CODE = """
import importlib, json, sys
import bettiforge

exports = json.loads(sys.argv[1])
if bettiforge.__all__ != exports:
    print("__all__", bettiforge.__all__)
listed = dir(bettiforge)
for name in exports:
    if name not in listed:
        print("dir lacks", name)
for name in exports:
    obj = getattr(bettiforge, name)
    home = importlib.import_module(obj.__module__)
    if home.__name__ == "bettiforge" or getattr(home, name) is not obj:
        print("getattr", name, obj.__module__)
star = {}
exec("from bettiforge import *", star)
for name in exports:
    if star.get(name) is not getattr(bettiforge, name):
        print("import *", name)
try:
    bettiforge.no_such_name
except AttributeError as exc:
    print("AttributeError:", exc)
print("ok")
"""


def test_package_surface_resolves_each_name_to_its_home():
    """Every name of ``bettiforge.__all__`` is the object of its home module, by attribute, by ``*`` and in ``dir``."""
    proc = _fresh_python(_SURFACE_CODE, json.dumps(_EXPORTS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "AttributeError: module 'bettiforge' has no attribute 'no_such_name'",
        "ok",
    ]


def test_pfaffian_rejects_degrees_above_cap(capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, "x^99999999999"], ["-x^99999999999", 0]]), capsys)
    assert code == 2 and out == "" and "above the cap" in err
    # entries under the cap whose products pass it
    half = f"x^{2 ** (_W - 1)}"
    rows = [[0, half, half, half], ["-" + half, 0, half, half], ["-" + half, "-" + half, 0, half]]
    rows.append(["-" + half, "-" + half, "-" + half, 0])
    code, out, err = run_cli(["pfaffian", "-"], json.dumps(rows), capsys)
    assert code == 2 and out == "" and "product degree" in err


def _generic_matrix(size):
    """Alternating matrix text with its own variable ``aIIJJ`` in each upper slot, signs fixed by position."""
    grid = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            name = f"a{i + 1:02d}{j + 1:02d}"
            grid[i][j], grid[j][i] = (f"-{name}", name) if (i + j) % 3 == 0 else (name, f"-{name}")
    return grid


# upper entry -> its negation, written out; rational coefficients and exponents at and past 255
_RATIONAL_UPPER = {
    (1, 2): ("1/3*x^256 - y", "-1/3*x^256 + y"),
    (1, 3): ("x^255*y + 7/2", "-x^255*y - 7/2"),
    (1, 4): ("-2/5*z^257", "2/5*z^257"),
    (1, 5): ("y^65536 - 3*x*z", "-y^65536 + 3*x*z"),
    (2, 3): ("5*z^256*x", "-5*z^256*x"),
    (2, 4): ("x - 1/7", "-x + 1/7"),
    (2, 5): ("-y^2*z^300", "y^2*z^300"),
    (3, 4): ("11/2*x^1000", "-11/2*x^1000"),
    (3, 5): ("z + y", "-z - y"),
    (4, 5): ("-x^256*y^256*z^256 + 2", "x^256*y^256*z^256 - 2"),
}


def _rational_matrix():
    grid = [[0] * 5 for _ in range(5)]
    for (i, j), (upper, lower) in _RATIONAL_UPPER.items():
        grid[i - 1][j - 1], grid[j - 1][i - 1] = upper, lower
    return grid


@pytest.mark.parametrize(
    "matrix, md5, size",
    [
        (_generic_matrix(11), "85e98704bf1b2b3b43c76f549bb81992", 332684),
        (_generic_matrix(10), "569967e36037035cc2e958c0c70fbad2", 30255),
        (_rational_matrix(), "f883aa09f04d27088ab59b41278fc877", 559),
    ],
    ids=["generic-11-submaximal", "generic-10", "rational-wide-exponents"],
)
def test_pfaffian_stdout_is_pinned(matrix, md5, size, capsys):
    # recorded before polynomial text was read and written on packed keys
    code, out, _ = run_cli(["pfaffian", "-"], json.dumps(matrix), capsys)
    assert code == 0 and len(out) == size
    assert hashlib.md5(out.encode()).hexdigest() == md5


STRUCTURE_11 = Path(__file__).resolve().parent / "fixtures" / "structure-11.json"
# the same presentation with every coefficient times 20: 64-bit slots and the dict kernel
STRUCTURE_11_X20 = STRUCTURE_11.with_name("structure-11-x20.json")
# a linear presentation in four variables: the dict kernel for the memo and both compositions
STRUCTURE_11_X4 = STRUCTURE_11.with_name("structure-11-x4.json")


@pytest.mark.parametrize(
    "argv, md5",
    [
        (["verify-structure", "--matrix", str(STRUCTURE_11), "--g-rows", "2,5,9"], "aa903cb9cf67292f74ccae089732ed0a"),
        (["pfaffian", str(STRUCTURE_11)], "50c806e70b336d8a8fd9c8deb9904e50"),
        (["verify-structure", "--matrix", str(STRUCTURE_11_X20), "--g-rows", "2,5,9"], "aa903cb9cf67292f74ccae089732ed0a"),
        (["pfaffian", str(STRUCTURE_11_X20)], "966763ff6407cfe1b266a2aaa8c6540e"),
        (["verify-structure", "--matrix", str(STRUCTURE_11_X4), "--g-rows", "2,5,9"], "aa903cb9cf67292f74ccae089732ed0a"),
        (["pfaffian", str(STRUCTURE_11_X4)], "7795962ca5aebb24097131d69aa1ca4c"),
    ],
    ids=["verify-structure", "pfaffian", "verify-structure-x20", "pfaffian-x20", "verify-structure-x4", "pfaffian-x4"],
)
def test_structure_11_stdout_is_pinned(argv, md5):
    """Seeded linear 11x11 presentations through ``python -m bettiforge.cli``; the CI pins the same md5s."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bettiforge.cli", *argv], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout).hexdigest() == md5


def test_link(capsys):
    code, out, _ = run_cli(
        ["link", "--gens", "[2,2,2,2,2]", "--theta", "5", "--ci", "[2,2,8]", "--extra", "[8]"],
        capsys=capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["d0"] == 7 and data["d"] == 19
    assert data["resolution"]["F"] == [10, 10, 10, 15]
    assert data["minimal"]["F"] == [10, 10, 10]


def test_link_degenerate(capsys):
    code, _, err = run_cli(
        ["link", "--gens", "[2,2,2,2,2]", "--theta", "5", "--ci", "[1,2,2]", "--extra", "[1]"], capsys=capsys
    )
    assert code == 2 and "degenerate" in err


def test_link_refuses_missing_ghost_degrees(capsys):
    # d0 = 7 - 5 = 2, so the added degree 8 brings the ghost degree 10: the
    # E level of the mapping cone holds it, the F level {{5,5,5,5}} does not
    code, out, err = run_cli(
        ["link", "--gens", "[2,2,2,2,2]", "--theta", "5", "--ci", "[-3,2,8]", "--extra", "[8]"], capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: slot bookkeeping mismatch: ghost degrees {{10}} not present\n"


def test_link_refuses_inadmissible_gens(capsys):
    code, out, err = run_cli(["link", "--gens", "[1,1,1,2,5]", "--theta", "5", "--ci", "[1,2,5]"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: inadmissible Gorenstein Betti sequence: theta = 5 <= h_2 + h_5 = 6\n"


def test_link_refuses_an_empty_extra(capsys):
    # an empty --extra is malformed input, as an empty --ci or --gens is, not "no extra"
    code, out, err = run_cli(
        ["link", "--gens", "[2,2,2,2,2]", "--theta", "5", "--ci", "[2,2,2]", "--extra", ""], capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: expected a JSON integer array, got ''")


@pytest.mark.parametrize("value", ["\u0666", "0_3", " 1_0 "], ids=["arabic-indic", "underscore", "spaced"])
def test_integer_options_are_ascii_digits(value, capsys):
    # int() reads each of these as a number; the integer options take ASCII digits only
    for option, argv in (
        ("--max-degree", ["enumerate", "--max-degree", value, "--max-f", "2"]),
        ("--max-f", ["enumerate", "--max-degree", "6", "--max-f", value]),
        ("--jobs", ["enumerate", "--max-degree", "6", "--max-f", "2", "--jobs", value]),
        ("--nvars", ["hilbert", "--ci", "[1,1,1]", "--nvars", value]),
        ("--theta", ["link", "--gens", "[2,2,2,2,2]", "--theta", value, "--ci", "[2,2,8]", "--extra", "[8]"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and option in err, argv


def test_enumerate_stream(capsys):
    code, out, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "2"], capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first == {"D": [1, 2, 2, 2], "E": [3, 3, 3, 3, 3], "F": [4, 4]}


def test_enumerate_byte_stable(capsys):
    _, out1, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "2"], capsys=capsys)
    _, out2, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "2"], capsys=capsys)
    assert out1 == out2


def test_enumerate_stdout_is_pinned(capsys):
    # the md5 test_enumerate_ndjson_is_pinned records for the library stream
    code, out, _ = run_cli(["enumerate", "--max-degree", "12", "--max-f", "5"], capsys=capsys)
    assert code == 0 and out.count("\n") == 1517
    assert hashlib.md5(out.encode()).hexdigest() == "06009033f4b7418ed137b4a717230732"


def test_enumerate_16_6_ndjson_is_pinned():
    """The benchmark's guard: enumerate (16, 6) as enumerate writes it, from the tuple pairs."""
    h = hashlib.md5()
    lines = 0
    for dvals, pairs in aci._enumerate_batches(16, 6):
        for line in cli._ndjson_lines(dvals, pairs):
            h.update(line.encode())
            lines += 1
    assert lines == 11958
    assert h.hexdigest() == "da51a30bee9965899d1782b669aebb2f"


def _ndjson_line(b):
    """The line the tuple formatter writes for one triple."""
    [line] = cli._ndjson_lines(tuple(b.d.values()), [(tuple(b.f.values()), tuple(b.e.values()))])
    return line


def test_enumerate_lines_are_sorted_key_json():
    """Each line enumerate writes is json.dumps of the triple with sorted
    keys: over the (12, 5) stream, and on triples with repeated degrees in
    each of D, E and F, and degrees of many digits."""
    triples = list(enumerate_admissible(12, 5))
    assert len(triples) == 1517
    triples += [
        AciBetti.from_values([9, 10, 10, 13], [11, 12, 12, 14, 15], [16, 17]),
        AciBetti.from_values([2, 2, 2, 5], [3, 4, 4, 4, 6], [7, 7]),
        AciBetti.from_values([3, 6, 6, 6], [8, 8, 8, 10, 10, 10, 12, 12, 12, 12], [9, 11, 11, 11, 13, 13, 13]),
        AciBetti.from_values([1, 1, 1, 1], [5, 5, 5, 5, 5, 5], [9, 9, 9]),
        AciBetti.from_values([7, 10**20, 10**20, 10**20 + 1], [1, 10**30, 10**30, 10**30, 2 * 10**30], [10**25, 10**25]),
    ]
    for b in triples:
        assert _ndjson_line(b) == json.dumps(b.to_json(), sort_keys=True) + "\n", b


@pytest.mark.parametrize("jobs", [1, 2])
def test_enumerate_admissible_agrees_with_enumerate_stdout(jobs, capsys):
    """The library and the command read one stream of tuple pairs: at
    (12, 5) the json.dumps lines of enumerate_admissible are the command's
    stdout, and each AciBetti built from the tuples equals the one
    from_values builds from its own JSON."""
    code, out, _ = run_cli(["enumerate", "--max-degree", "12", "--max-f", "5"], capsys=capsys)
    assert code == 0 and out.count("\n") == 1517
    assert hashlib.md5(out.encode()).hexdigest() == "06009033f4b7418ed137b4a717230732"
    triples = list(enumerate_admissible(12, 5, jobs=jobs))
    assert "".join(json.dumps(b.to_json(), sort_keys=True) + "\n" for b in triples) == out
    for b in triples:
        data = b.to_json()
        assert b == AciBetti.from_values(data["D"], data["E"], data["F"]), b


def test_enumerate_writes_each_line_once(capsys, monkeypatch):
    writes = []
    monkeypatch.setattr(sys.stdout, "write", writes.append)
    assert main(["enumerate", "--max-degree", "8", "--max-f", "3"]) == 0
    assert writes and all(w.count("\n") == 1 and w.endswith("\n") for w in writes)
    monkeypatch.undo()
    _, out, _ = run_cli(["enumerate", "--max-degree", "8", "--max-f", "3"], capsys=capsys)
    assert "".join(writes) == out


def test_enumerate_jobs_preserve_order(capsys):
    _, seq, _ = run_cli(["enumerate", "--max-degree", "7", "--max-f", "2"], capsys=capsys)
    _, par, _ = run_cli(
        ["enumerate", "--max-degree", "7", "--max-f", "2", "--jobs", "2"], capsys=capsys
    )
    assert seq == par


def test_enumerate_max_f_beyond_bound_a_adds_no_work(capsys):
    # m <= h_0 <= d_1 caps |F| at |G0| = 2m + 1 <= 2 * d_1 + 1 <= 13 for degrees up to 6
    _, expected, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "13"], capsys=capsys)
    start = time.perf_counter()
    code, out, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "1000000000"], capsys=capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == expected and out.count("\n") == 17


def test_enumerate_bad_bounds(capsys):
    code, _, _ = run_cli(["enumerate", "--max-degree", "6", "--max-f", "1"], capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_enumerate_rejects_nonpositive_jobs(jobs, capsys):
    code, out, err = run_cli(
        ["enumerate", "--max-degree", "6", "--max-f", "2", "--jobs", jobs], capsys=capsys
    )
    assert code == 2 and out == "" and "--jobs" in err


def test_verify_structure(tmp_path, capsys):
    import random

    from bettiforge.pfaffian import random_graded_alternating

    m = random_graded_alternating([2] * 5, random.Random(3))
    payload = {
        "entries": [[str(e) for e in row] for row in m.entries],
        "twists": [2] * 5,
        "variables": ["x1", "x2", "x3"],
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(
        ["verify-structure", "--matrix", str(path), "--g-rows", "1,2,3"], capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["twist_multisets"][1] == [1, 2, 2, 2]


def test_verify_structure_needs_twists(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[0, "a"], ["-a", 0]]), encoding="utf-8")
    code, _, err = run_cli(
        ["verify-structure", "--matrix", str(path), "--g-rows", "1,2,3"], capsys=capsys
    )
    assert code == 2 and "twists" in err


def _presentation_payload():
    import random

    from bettiforge.pfaffian import random_graded_alternating

    m = random_graded_alternating([2] * 5, random.Random(3))
    return {"entries": [[str(e) for e in row] for row in m.entries], "twists": [2] * 5, "variables": ["x1", "x2", "x3"]}


@pytest.mark.parametrize(
    "twists",
    [[2.9, 2, 2, 2, 2.1], [True, 2, 2, 2, 2], ["2", "2", "2", "2", "2"]],
    ids=["float", "bool", "string"],
)
def test_verify_structure_rejects_non_integer_twists(twists, capsys):
    payload = dict(_presentation_payload(), twists=twists)
    code, out, err = run_cli(
        ["verify-structure", "--matrix", "-", "--g-rows", "1,2,3"], json.dumps(payload), capsys
    )
    assert code == 2 and out == "" and "twists" in err


@pytest.mark.parametrize(
    "g_rows",
    ["\u0663,1,2", "0_3,1,2", "1_0,2,3", "\uff11,2,3", "1,2,+3", "1,2,\t3", "1,2,3\n", "1,2"],
    ids=["arabic-indic", "underscore", "underscore-ten", "fullwidth", "plus", "tab", "newline", "two-rows"],
)
def test_verify_structure_g_rows_are_ascii_digits(g_rows, capsys):
    payload = json.dumps(_presentation_payload())
    code, out, err = run_cli(["verify-structure", "--matrix", "-", "--g-rows", g_rows], payload, capsys)
    assert code == 2 and out == "" and "--g-rows" in err


def test_verify_structure_g_rows_may_have_spaces(capsys):
    payload = json.dumps(_presentation_payload())
    plain = run_cli(["verify-structure", "--matrix", "-", "--g-rows", "1,2,3"], payload, capsys)
    spaced = run_cli(["verify-structure", "--matrix", "-", "--g-rows", " 1 ,2,  3"], payload, capsys)
    assert plain[0] == 0 and spaced == plain


@pytest.mark.parametrize(
    "variables",
    [5, "x", ["x", "x"], ["x", 1], ["x", "1y"], ["x", "a b"]],
    ids=["number", "string", "repeated", "non-string", "leading-digit", "space"],
)
def test_variables_must_be_distinct_identifiers(variables, capsys):
    pfaffian_input = {"entries": [[0, "x"], ["-x", 0]], "variables": variables}
    structure_input = dict(_presentation_payload(), variables=variables)
    for argv, payload in (
        (["pfaffian", "-"], pfaffian_input),
        (["verify-structure", "--matrix", "-", "--g-rows", "1,2,3"], structure_input),
    ):
        code, out, err = run_cli(argv, json.dumps(payload), capsys)
        assert code == 2 and out == "" and '"variables"' in err, argv


def test_matrix_size_is_capped(capsys):
    # only the row count is read: entries that would not even parse show
    # that nothing is built from a matrix over the cap
    n = cli.MAX_MATRIX_SIZE + 1
    rows = [["1/0"] * n for _ in range(n)]
    structure_input = {"entries": rows, "twists": [1] * n}
    for data in (rows, structure_input):
        with pytest.raises(cli.InputError, match=f"at most {cli.MAX_MATRIX_SIZE}"):
            cli._load_alternating(data)
    for argv, payload in (
        (["pfaffian", "-"], rows),
        (["verify-structure", "--matrix", "-", "--g-rows", "1,2,3"], structure_input),
    ):
        code, out, err = run_cli(argv, json.dumps(payload), capsys)
        assert code == 2 and out == "" and f"at most {cli.MAX_MATRIX_SIZE}" in err, argv


def test_every_value_error_is_invalid_input_and_nothing_else_is(monkeypatch, capsys):
    def invalid(_):
        raise ValueError("boom")

    def broken(_):
        raise AssertionError("self-check failed")

    monkeypatch.setattr(cli, "check_betti", invalid)
    assert run_cli(["check", "-"], EX_ADMISSIBLE, capsys) == (2, "", "error: boom\n")
    monkeypatch.setattr(cli, "check_betti", broken)
    with pytest.raises(AssertionError, match="self-check failed"):
        run_cli(["check", "-"], EX_ADMISSIBLE, capsys)


def test_seed_option_is_gone(capsys):
    # no command uses randomness, so there is no --seed to set
    enumerate_argv = ["enumerate", "--max-degree", "6", "--max-f", "2"]
    for argv in (["--seed", "1"] + enumerate_argv, enumerate_argv + ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "error" in err


def test_check_answer_past_the_digit_cap_prints(capsys):
    # each degree has 4,300 digits, which JSON reads; the witness names their sums, which have more
    big = 9 * 10**4299
    payload = json.dumps({"D": [big] * 4, "E": [1] * 5, "F": [1, 1]})
    cap = sys.get_int_max_str_digits()
    code, out, err = run_cli(["check", "-", "--explain"], payload, capsys)
    assert code == 1 and json.loads(out)["stage"] == 1
    assert err.startswith("rejected at stage 1: ")
    assert sys.get_int_max_str_digits() == cap


def test_pfaffian_answer_past_the_digit_cap_prints(capsys):
    n = "1" + "0" * 3000
    rows = [[0, n, 0, 0], ["-" + n, 0, 0, 0], [0, 0, 0, n], [0, 0, "-" + n, 0]]
    cap = sys.get_int_max_str_digits()
    code, out, err = run_cli(["pfaffian", "-"], json.dumps(rows), capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["pfaffian"] == "1" + "0" * 6000
    assert sys.get_int_max_str_digits() == cap


_BIG = str(9 * 10**4299)  # 4,300 digits, the most an integer literal may have


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hilbert", "--ci", f"[{_BIG},{_BIG}]", "--nvars", "2"], "largest twist 18"),
        (["link", "--gens", f"[{_BIG},{_BIG},{_BIG},{_BIG},{_BIG}]", "--theta", "5", "--ci", "[2,2,8]"], "2*norm = 9"),
    ],
    ids=["hilbert", "link"],
)
def test_messages_past_the_digit_cap_print(argv, message, capsys):
    # the message names a bound computed from the input, with more digits than any input
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == "" and message in err and "4300" not in err


@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["check", "-"], '{"D": [' + "1" * 5000 + ', 1, 1, 1], "E": [1, 1, 1, 1, 1], "F": [1, 1]}'),
        (["pfaffian", "-"], json.dumps([[0, "1" * 5000], ["-" + "1" * 5000, 0]])),
        (["mci", "--gens", "[" + "1" * 5000 + "]"], None),
        (["link", "--gens", "[2,2,2,2,2]", "--theta", "1" * 5000, "--ci", "[2,2,8]"], None),
    ],
    ids=["json", "coefficient", "int-array", "int-option"],
)
def test_input_literals_keep_the_digit_cap(argv, stdin_text, capsys):
    try:
        code, out, err = run_cli(argv, stdin_text, capsys)
    except SystemExit as exc:  # argparse rejects an integer option itself
        code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2 and out == "" and "4300 digits" in err
    assert len(err) < 400


def test_coefficient_exponent_is_refused_at_once(capsys):
    # building 10**10000000 took over 20 s (shared 2-vCPU Xeon) before the exponent was capped
    start = time.perf_counter()
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, "1e10000000*x"], ["-1e10000000*x", 0]]), capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "exponent is above the cap 4300" in err


def test_variable_count_is_capped(capsys):
    from bettiforge.exact import _MAX_VARIABLES

    names = [f"v{i}" for i in range(_MAX_VARIABLES + 1)]
    text = "+".join(names)
    for payload in (
        [[0, text], ["-" + "-".join(names), 0]],
        {"entries": [[0, "v0"], ["-v0", 0]], "variables": names},
    ):
        start = time.perf_counter()
        code, out, err = run_cli(["pfaffian", "-"], json.dumps(payload), capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and f"at most {_MAX_VARIABLES} are supported" in err
    # a generic 13x13 matrix, the largest the CLI takes, names 78 variables
    matrix, _ = cli._load_alternating(_generic_matrix(13))
    assert len(matrix.names) == 78 <= _MAX_VARIABLES
    at_cap = {"entries": [[0, "v0"], ["-v0", 0]], "variables": names[:-1]}
    code, out, _ = run_cli(["pfaffian", "-"], json.dumps(at_cap), capsys)
    assert code == 0 and json.loads(out) == {"pfaffian": "v0"}


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["mci", "--gens", "[" + "1," * 5000 + "x]"], "expected a JSON integer array"),
        (["mci", "--gens", json.dumps(["1"] * 2000)], "expected a JSON integer array"),
        (["gorenstein-check", "--gens", "y" * 10_000], "expected a JSON integer array"),
        (["verify-structure", "--matrix", "-", "--g-rows", "1,2," + "x" * 10_000], "--g-rows"),
        (["hilbert", "--ci", "[1,1,1]", "--nvars", "x" * 10_000], "expected an integer in ASCII digits"),
    ],
    ids=["gens-malformed", "gens-not-ints", "gens-10000-chars", "g-rows", "int-option"],
)
def test_error_messages_clip_echoed_arguments(argv, problem, capsys):
    assert max(map(len, argv)) >= 10_000
    try:
        code, out, err = run_cli(argv, json.dumps(_presentation_payload()), capsys)
    except SystemExit as exc:  # argparse rejects an integer option itself
        code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2 and out == "" and problem in err
    assert len(err.encode()) < 400 and "characters)" in err


@pytest.mark.parametrize(
    "entry, problem",
    [
        ("x+" + "y" * 10_000 + "$", "unknown variable"),
        ("x*" + "y" * 10_000 + "**z", "malformed term"),
        ("x" + "y" * 10_000 + "+-z", "malformed polynomial"),
        ("1_" + "2" * 10_000 + "*x", "coefficient must be written in ASCII"),
        ("x^" + "a" * 10_000, "exponent of 'x' must be ASCII digits"),
        ("3/" + "x" * 10_000, "coefficient must be an integer or a rational"),
        ("1e" + "9" * 10_000 + "*x", "coefficient exponent is above the cap"),
        ([1] * 5_000, "coefficient must be an integer or a rational"),
    ],
    ids=[
        "unknown-variable",
        "malformed-term",
        "malformed-polynomial",
        "coefficient-ascii",
        "exponent-digits",
        "coefficient-rational",
        "coefficient-exponent",
        "array-entry",
    ],
)
def test_parser_messages_clip_echoed_entries(entry, problem, capsys):
    code, out, err = run_cli(["pfaffian", "-"], json.dumps([[0, entry], [0, 0]]), capsys)
    assert code == 2 and out == "" and problem in err
    assert len(err.encode()) < 400 and "characters)" in err
