"""The benchmark workloads: seeded inputs, untimed references, timed passes.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``run_pass`` runs every input once and
returns one ``(seconds, ok)`` pair per operation; an operation fails on
an exception, on an unexpected exit code, or on output that differs from
its reference.  A workload whose operation lasts long enough may call the
optional ``probe`` during it; the probe's time is not counted.
bettiforge names are looked up at call time, so the same pass runs
traced when ``spans.Tracer`` is installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from pathlib import Path

import inputs

ENUMERATE_MD5 = "da51a30bee9965899d1782b669aebb2f"  # NDJSON of enumerate (16,6)
ENUMERATE_LINES = 11958
CHECK_MIX_REFS = Path(__file__).with_name("check_mix_refs.txt")
PROBE_INTERVAL_S = 0.25


class _HashSink:
    """Stand-in for stdout that streams everything written into md5.

    With a probe, it calls the probe whenever PROBE_INTERVAL_S has passed
    since the last call and adds up the seconds the probe reports spending.
    """

    def __init__(self, probe=None) -> None:
        self.md5 = hashlib.md5()
        self.lines = 0
        self.probe = probe
        self.probe_s = 0.0
        self.next_probe = time.perf_counter() + PROBE_INTERVAL_S

    def write(self, text: str) -> int:
        self.md5.update(text.encode())
        self.lines += text.count("\n")
        if self.probe is not None and time.perf_counter() >= self.next_probe:
            self.probe_s += self.probe()
            self.next_probe = time.perf_counter() + PROBE_INTERVAL_S
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(argv: list[str], stdin_text: str | None = None, sink=None):
    """Run ``bettiforge.cli.main`` in-process; return (exit code, stdout sink)."""
    from bettiforge import cli

    out = io.StringIO() if sink is None else sink
    saved = sys.stdout, sys.stdin
    sys.stdout = out
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stdin = saved
    return code, out


def _timed(fn) -> tuple[float, bool]:
    """Time one operation; an exception counts as a failure."""
    start = time.perf_counter()
    try:
        ok = fn()
    except Exception:
        ok = False
    return time.perf_counter() - start, ok


class EnumerateWorkload:
    """``enumerate --max-degree 16 --max-f 6`` in-process, stdout hashed as it streams.

    The bounds are the input, so the seed changes nothing here.
    """

    name = "enumerate-16-6"

    def __init__(self, seed: int) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_pass(self, probe=None) -> list[tuple[float, bool]]:
        """One enumeration.  A probe runs between output lines, off the clock."""
        sink = _HashSink(probe)

        def op() -> bool:
            code, _ = run_cli(inputs.ENUMERATE_ARGV, sink=sink)
            return code == 0 and sink.lines == ENUMERATE_LINES and sink.md5.hexdigest() == ENUMERATE_MD5

        seconds, ok = _timed(op)
        return [(seconds - sink.probe_s, ok)]


def load_check_mix_refs() -> dict[int, tuple[str, int, int]]:
    """seed -> (md5 of the verdict lines, linked admissible, linked stage 3), recorded at the seed commit."""
    refs = {}
    for line in CHECK_MIX_REFS.read_text().splitlines():
        if line and not line.startswith("#"):
            seed, md5, admissible, stage3 = line.split()
            refs[int(seed)] = (md5, int(admissible), int(stage3))
    return refs


def verdict_line(verdict) -> str:
    """The verdict as ``check`` prints it; an operation that raised has None."""
    return "exception" if verdict is None else json.dumps(verdict.to_json(), sort_keys=True)


def stratum_holds(stratum: str, verdict) -> bool:
    """Whether the verdict is one its stratum guarantees by construction."""
    if verdict is None:
        return False
    if stratum == inputs.LINKED:
        return verdict.admissible or verdict.stage == 3
    if stratum == inputs.MUTANT:
        return verdict.stage == 2
    if stratum == inputs.CLAUSE3:
        return verdict.stage == 1 and verdict.witness.startswith("Ehat")
    return verdict.stage == 1 and verdict.witness.startswith("(d - F)")


def check_mix_summary(items, verdicts) -> tuple[list[str], str, int, int]:
    """Verdict lines, their md5, and the admissible / stage-3 split of the linked stratum."""
    lines = [verdict_line(v) for v in verdicts]
    md5 = hashlib.md5("\n".join(lines).encode()).hexdigest()
    linked = [v for (stratum, *_), v in zip(items, verdicts) if stratum == inputs.LINKED]
    admissible = sum(1 for v in linked if v is not None and v.admissible)
    stage3 = sum(1 for v in linked if v is not None and v.stage == 3)
    return lines, md5, admissible, stage3


class CheckMixWorkload:
    """A seeded stream of (D, E, F) triples through ``AciBetti.from_values`` and ``check_betti``.

    One operation is one decision.  The first pass is checked against the
    digest recorded for the seed (when the seed is in the table) and every
    verdict against what its stratum guarantees; later passes must repeat
    the first pass verdict for verdict.
    """

    name = "check-mix"

    def __init__(self, seed: int) -> None:
        self.items = inputs.check_mix(seed)
        self.reference: list[str] | None = None
        self.recorded = load_check_mix_refs().get(seed)

    def prepare(self) -> None:
        pass

    def run_pass(self, probe=None) -> list[tuple[float, bool]]:
        from bettiforge import aci

        from_values = aci.AciBetti.from_values
        check_betti = aci.check_betti
        clock = time.perf_counter
        times = []
        verdicts = []
        for _, d, e, f in self.items:
            start = clock()
            try:
                verdict = check_betti(from_values(d, e, f))
            except Exception:
                verdict = None
            times.append(clock() - start)
            verdicts.append(verdict)
        lines, md5, admissible, stage3 = check_mix_summary(self.items, verdicts)
        if self.reference is None:
            if self.recorded is not None and self.recorded != (md5, admissible, stage3):
                return [(t, False) for t in times]
            self.reference = lines
        return [
            (t, stratum_holds(item[0], v) and line == ref)
            for t, item, v, line, ref in zip(times, self.items, verdicts, lines, self.reference)
        ]


def _run_cli_set(calls: list[tuple[list[str], str, str]], probe=None) -> list[tuple[float, bool]]:
    """One operation: every (argv, stdin, expected stdout) call must exit 0 and print exactly that.

    A probe runs between calls, off the clock.
    """
    probe_s = 0.0

    def op() -> bool:
        nonlocal probe_s
        ok = True
        for i, (argv, stdin_text, expected) in enumerate(calls):
            if i and probe is not None:
                probe_s += probe()
            code, out = run_cli(argv, stdin_text)
            ok = ok and code == 0 and out.getvalue() == expected
        return ok

    seconds, ok = _timed(op)
    return [(seconds - probe_s, ok)]


class StructureWorkload:
    """``verify-structure`` in-process on seeded linear presentations at 7x7, 9x9 and 11x11.

    One operation is the whole set.  The reference is ``report.ok`` with
    twist multisets equal to the ``link_betti`` levels, written out as the
    exact stdout the command must print.
    """

    name = "structure-7-11"

    def __init__(self, seed: int) -> None:
        self.presentations = inputs.structure_presentations(seed)
        self.calls: list[tuple[list[str], str, str]] = []

    def prepare(self) -> None:
        from bettiforge.aci import link_betti
        from bettiforge.multiset import IntMultiset

        self.calls = []
        for p in self.presentations:
            twists = p["twists"]
            theta = 2 * sum(twists) // (len(twists) - 1)
            levels = link_betti(
                IntMultiset.from_values(twists), theta, [twists[g - 1] for g in p["g_rows"]]
            ).resolution()
            payload = {
                "compositions": [{"witness": None, "zero": True}] * 2,
                "homogeneity_witness": None,
                "homogeneous": True,
                "ok": True,
                "rank_ok": True,
                "twist_multisets": [[0]] + [m.to_list() for m in levels],
            }
            argv = ["verify-structure", "--matrix", "-", "--g-rows", ",".join(map(str, p["g_rows"]))]
            self.calls.append((argv, p["matrix_json"], json.dumps(payload, sort_keys=True) + "\n"))

    def run_pass(self, probe=None) -> list[tuple[float, bool]]:
        return _run_cli_set(self.calls, probe)


class PfaffianWorkload:
    """``pfaffian`` in-process on generic symbolic matrices of size 9 and 10.

    One operation is the pair.  References come from the perfect-matching
    oracle ``AlternatingMatrix.pfaffian_oracle``, computed untimed.
    """

    name = "pfaffian-generic"

    def __init__(self, seed: int) -> None:
        self.matrices = inputs.generic_matrices(seed)
        self.calls: list[tuple[list[str], str, str]] = []

    def prepare(self) -> None:
        from bettiforge.exact import parse_matrix
        from bettiforge.pfaffian import AlternatingMatrix

        self.calls = []
        for m in self.matrices:
            matrix = AlternatingMatrix.from_poly_matrix(parse_matrix(json.loads(m["matrix_json"])))
            if matrix.size % 2 == 0:
                payload = {"pfaffian": str(matrix.pfaffian_oracle())}
            else:
                vector = []
                for i in range(matrix.size):
                    value = matrix.delete((i + 1,)).pfaffian_oracle()
                    vector.append(str(value if i % 2 == 0 else -value))
                payload = {"submaximal_pfaffians": vector}
            self.calls.append((["pfaffian", "-"], m["matrix_json"], json.dumps(payload, sort_keys=True) + "\n"))

    def run_pass(self, probe=None) -> list[tuple[float, bool]]:
        return _run_cli_set(self.calls, probe)


WORKLOADS = {
    w.name: w for w in (EnumerateWorkload, CheckMixWorkload, StructureWorkload, PfaffianWorkload)
}
