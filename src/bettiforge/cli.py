"""Command-line front end: batch tools with JSON input and output.

Exit codes: 0 for success / admissible, 1 for a negative verdict or a
failed verification, 2 for invalid input.  Invalid input has one rule:
every ``ValueError`` a command raises, whether from the library or as
an :class:`InputError` from the CLI's own checks, is printed as
``error: <message>`` on stderr with exit code 2; nothing else is mapped,
so a failed internal check still crashes.  All output is deterministic:
no command uses randomness, enumeration streams NDJSON in canonical
order, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Sequence

from .aci import AciBetti, check_betti, enumerate_admissible, link_betti, worker_count
from .exact import _DIGITS_RE, _NAME_RE, _clip, parse_matrix
from .gorenstein import (
    GorensteinBetti,
    check_gorenstein_betti,
    hilbert_from_resolution,
    hilbert_of_ci,
    mci,
)
from .multiset import IntMultiset
from .pfaffian import AlternatingMatrix
from .structure import AlternatingPresentation, build_aci_complex, verify_complex


# Largest matrix `pfaffian` and `verify-structure` accept.  The worst case
# admitted, the submaximal vector of a generic 13x13 matrix (one variable
# per entry), takes 0.8 to 1.3 s and 116 MB through the CLI on a shared
# 2-CPU Xeon with Python 3.11; each +2 in size multiplies the terms of a
# generic pfaffian by about 13.
MAX_MATRIX_SIZE = 13


class InputError(ValueError):
    """Invalid user input found by the CLI itself; mapped to exit code 2 like any ValueError."""


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's cap on the digits of an int converted to or from text, for the ``with`` block.

    The cap (4,300 digits by default) keeps a huge literal from taking
    quadratic time to parse, so it stays on while the input is read: JSON,
    integer options and polynomial coefficients.  An answer, or a message
    that names a computed bound, may have more digits than any input (a
    pfaffian multiplies entries, a norm adds them), so each command lifts
    the cap once its input is read, while it computes and prints.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # no cap before Python 3.10.7
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _loads(text: str):
    """``json.loads``, with arrays or objects nested too deep to decode raised as a JSONDecodeError.

    The decoder raises RecursionError, which is not a ValueError, once the
    nesting passes the interpreter's recursion limit.  As a JSONDecodeError
    it gets each caller's message for malformed JSON and exit code 2.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None


def _read_json(path: str):
    try:
        if path == "-":
            return _loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return _loads(fh.read())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _is_int_array(data) -> bool:
    """True for a JSON array of integers; bools, floats and strings do not count."""
    return isinstance(data, list) and all(type(x) is int for x in data)


def _parse_int_list(text: str) -> list[int]:
    try:
        data = _loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"expected a JSON integer array, got {_clip(text)}: {exc}") from exc
    if not _is_int_array(data):
        raise InputError(f"expected a JSON integer array, got {_clip(text)}")
    return data


def _int_option(text: str) -> int:
    """The ``type`` of every integer option: ASCII digits after an optional '-', nothing else."""
    if not _DIGITS_RE.fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {_clip(text)}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than Python's cap on int literals
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _json_items(runs) -> str:
    """The items of the JSON array of a multiset's sorted runs, as ``json.dumps`` separates them."""
    text = ""
    for v, m in runs:
        text += f"{v}, " * m
    return text[:-2]


def _ndjson_line(betti: AciBetti) -> str:
    """The line ``enumerate`` writes for a triple: the bytes of
    ``json.dumps(betti.to_json(), sort_keys=True)`` and a newline, formatted
    straight from the runs of D, E and F without expanding their values."""
    return '{"D": [%s], "E": [%s], "F": [%s]}\n' % (
        _json_items(betti.d.entries), _json_items(betti.e.entries), _json_items(betti.f.entries)
    )


def _is_name_array(data) -> bool:
    """True for a JSON array of distinct identifier strings."""
    return (
        isinstance(data, list)
        and all(isinstance(x, str) and _NAME_RE.fullmatch(x) for x in data)
        and len(set(data)) == len(data)
    )


def _load_alternating(data) -> tuple[AlternatingMatrix, list[int] | None]:
    """Accept a bare array-of-arrays or {"entries": ..., "twists": ..., "variables": ...}.

    Matrices with more than MAX_MATRIX_SIZE rows are refused before any
    entry is parsed.
    """
    twists = None
    if isinstance(data, dict):
        if "entries" not in data:
            raise InputError('matrix object needs an "entries" key')
        entries = data["entries"]
        names = data.get("variables")
        twists = data.get("twists")
        if names is not None and not _is_name_array(names):
            raise InputError('"variables" must be a JSON array of distinct identifier strings')
    else:
        entries = data
        names = None
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise InputError("matrix entries must be an array of arrays")
    if len(entries) > MAX_MATRIX_SIZE:
        raise InputError(f"matrix has {len(entries)} rows; at most {MAX_MATRIX_SIZE} are supported")
    return AlternatingMatrix.from_poly_matrix(parse_matrix(entries, names)), twists


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_check(args) -> int:
    betti = AciBetti.from_json(_read_json(args.input))
    with _unlimited_digits():
        verdict = check_betti(betti)
        _emit(verdict.to_json())
        if args.explain:
            if verdict.admissible:
                print("admissible: every stage of the decision procedure passed", file=sys.stderr)
            else:
                print(f"rejected at stage {verdict.stage}: {verdict.witness}", file=sys.stderr)
    return 0 if verdict.admissible else 1


def cmd_mci(args) -> int:
    gens = IntMultiset.from_values(_parse_int_list(args.gens))
    with _unlimited_digits():
        beta = GorensteinBetti.from_gens(gens)
        _emit({"mci": list(mci(beta)), "theta": beta.theta})
    return 0


def cmd_gorenstein_check(args) -> int:
    gens = IntMultiset.from_values(_parse_int_list(args.gens))
    with _unlimited_digits():
        verdict = check_gorenstein_betti(gens)
        _emit({"admissible": verdict.admissible, "theta": verdict.theta, "reason": verdict.reason})
    return 0 if verdict.admissible else 1


def cmd_hilbert(args) -> int:
    if (args.resolution is None) == (args.ci is None):
        raise InputError("provide exactly one of --resolution or --ci")
    if args.ci is not None:
        hilbert = functools.partial(hilbert_of_ci, _parse_int_list(args.ci))
    else:
        try:
            data = _loads(args.resolution)
        except json.JSONDecodeError as exc:
            raise InputError(f"--resolution is not valid JSON: {exc}") from exc
        if not isinstance(data, list) or not all(_is_int_array(m) for m in data):
            raise InputError("--resolution must be a JSON array of integer arrays")
        hilbert = functools.partial(hilbert_from_resolution, [IntMultiset.from_values(m) for m in data])
    with _unlimited_digits():
        h = hilbert(args.nvars)
        _emit({"values": list(h.values), "socle_degree": h.socle_degree(), "length": h.length()})
    return 0


def cmd_pfaffian(args) -> int:
    matrix, _ = _load_alternating(_read_json(args.input))
    with _unlimited_digits():
        if matrix.size % 2 == 0:
            _emit({"pfaffian": str(matrix.pfaffian())})
        else:
            _emit({"submaximal_pfaffians": [str(p) for p in matrix.submaximal_pfaffians()]})
    return 0


def cmd_link(args) -> int:
    gens = IntMultiset.from_values(_parse_int_list(args.gens))
    ci_type = _parse_int_list(args.ci)
    extra = IntMultiset.from_values(_parse_int_list(args.extra)) if args.extra else None
    with _unlimited_digits():
        _emit(link_betti(gens, args.theta, ci_type, extra).to_json())
    return 0


def cmd_enumerate(args) -> int:
    if args.max_degree < 1 or args.max_f < 2:
        raise InputError("--max-degree must be >= 1 and --max-f >= 2")
    try:
        jobs = worker_count(args.jobs)
    except ValueError as exc:
        raise InputError(f"--jobs: {exc}") from exc
    write = sys.stdout.write
    for betti in enumerate_admissible(args.max_degree, args.max_f, jobs=jobs):
        write(_ndjson_line(betti))
    return 0


def cmd_verify_structure(args) -> int:
    data = _read_json(args.matrix)
    matrix, twists = _load_alternating(data)
    if twists is None:
        raise InputError('structure verification needs "twists" in the matrix file')
    if not _is_int_array(twists):
        raise InputError('"twists" must be a JSON array of integers')
    fields = [field.strip(" ") for field in args.g_rows.split(",")]  # ASCII spaces around a row may stay
    if not all(map(_DIGITS_RE.fullmatch, fields)):
        raise InputError(f"--g-rows must be comma-separated ASCII digits, got {_clip(args.g_rows)}")
    g_rows = tuple(map(int, fields))
    if len(g_rows) != 3:
        raise InputError("--g-rows needs exactly three row indices")
    with _unlimited_digits():
        complex_ = build_aci_complex(AlternatingPresentation(matrix, g_rows, tuple(twists)))
        report = verify_complex(complex_)
        payload = report.to_json()
        payload["twist_multisets"] = [m.to_list() for m in complex_.twist_multisets()]
        _emit(payload)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once and shared by every later call; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="bettiforge",
        description="Exact pfaffian algebra and Betti-sequence tools for codimension-3 almost complete intersections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide admissibility of a (D, E, F) triple")
    p.add_argument("input", help="path to JSON {\"D\": [...], \"E\": [...], \"F\": [...]} or - for stdin")
    p.add_argument("--explain", action="store_true", help="human-readable verdict on stderr")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mci", help="minimal complete-intersection type of a Gorenstein sequence")
    p.add_argument("--gens", required=True, help="JSON array of generator degrees")
    p.set_defaults(func=cmd_mci)

    p = sub.add_parser("gorenstein-check", help="Gaeta-Diesel admissibility of generator degrees")
    p.add_argument("--gens", required=True, help="JSON array of generator degrees")
    p.set_defaults(func=cmd_gorenstein_check)

    p = sub.add_parser("hilbert", help="Hilbert function of a graded free resolution")
    p.add_argument("--resolution", help="JSON array of twist arrays [M1, M2, ...]")
    p.add_argument("--ci", help="JSON array of complete-intersection degrees")
    p.add_argument("--nvars", type=_int_option, default=3, help="number of variables (default 3)")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("pfaffian", help="pfaffian (even size) or submaximal vector (odd size)")
    p.add_argument("input", help="path to matrix JSON or - for stdin")
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("link", help="resolution bookkeeping for linkage in a complete intersection")
    p.add_argument("--gens", required=True, help="Gorenstein generator degrees, JSON array")
    p.add_argument("--theta", required=True, type=_int_option, help="socle-syzygy degree")
    p.add_argument("--ci", required=True, help="regular-sequence type, JSON array of three degrees")
    p.add_argument("--extra", help="degrees added as bordered pairs, JSON array")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("enumerate", help="stream all admissible triples within bounds as NDJSON")
    p.add_argument("--max-degree", required=True, type=_int_option)
    p.add_argument("--max-f", required=True, type=_int_option)
    p.add_argument("--jobs", type=_int_option, default=1, help="parallel workers, at most the CPUs available (order-preserving)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-structure", help="build and verify the four-term complex of a presentation")
    p.add_argument("--matrix", required=True, help="path to matrix JSON with entries/twists/variables")
    p.add_argument("--g-rows", required=True, help="three comma-separated row indices, e.g. 1,2,3")
    p.set_defaults(func=cmd_verify_structure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
