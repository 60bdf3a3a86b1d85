"""bettiforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  The program is
imported from ``src/`` of that checkout; nothing is installed.

``--trace 0`` measures the end-to-end metrics: it repeats passes over the
workload's inputs until ``--seconds`` have elapsed, checks every output,
and reports the median and tail operation time in units of a reference
loop timed alongside (see ``metrics.py`` for why), throughput, set-up
time and peak memory.  ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics; their difference in wall time is
``tracing_overhead_s``.  The span tree of the traced pass is written to
``.bench_out/``.

The last line of stdout is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The line before
it records the environment and the same figures under the workload's own
names (``enumerate_s``, ``check_p50_us`` and so on).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from spans import Tracer
from workloads import WORKLOADS
from yardstick import NOMINAL_S, reference_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
SETUP_SPACING_S = 1.5

# The wall-clock figures each workload reports under its own names:
# (name, figure in measure(), scale, unit).
_AS_NAMED = {
    "enumerate-16-6": (("enumerate_s", "op_p50_ms", 1e-3, "s"),),
    "check-mix": (
        ("check_per_s", "ops_per_s", 1, "1/s"),
        ("check_p50_us", "op_p50_ms", 1e3, "us"),
        ("check_p99_us", "op_tail_ms", 1e3, "us"),
    ),
    "structure-7-11": (("structure_s", "op_p50_ms", 1e-3, "s"),),
    "pfaffian-generic": (("pfaffian_s", "op_p50_ms", 1e-3, "s"),),
}

# Runs in a fresh interpreter: the import and first-call set-up, with the
# reference loop timed just before and just after in the same process.
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from yardstick import reference_s
before = reference_s()
start = time.perf_counter()
import bettiforge, bettiforge.cli
bettiforge.cli.build_parser()
elapsed = time.perf_counter() - start
print(repr(elapsed), repr((before + reference_s()) / 2))
"""


def setup_once() -> tuple[float, float]:
    """(seconds, reference units) a fresh interpreter takes to import bettiforge and build the CLI parser."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(BENCH_DIR)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, ref = map(float, proc.stdout.split())
    return seconds, seconds / ref


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail(sorted_values: list[float]) -> float:
    """The 99th percentile (nearest rank), or with fewer than 1000 samples the
    highest percentile that still has ten samples beyond it; at least the median."""
    n = len(sorted_values)
    q = min(0.99, 1 - 10 / n)
    if q <= 0.5:
        return statistics.median(sorted_values)
    return sorted_values[math.ceil(q * n) - 1]


def measure(workload, seconds: float) -> tuple[int, int, dict]:
    """Closed loop: passes over the inputs until the time is up.

    Returns (attempted, failed, figures).  The host's speed drifts by more
    than ten percent within seconds, so work off the clock runs between
    passes and, through the probe, during long operations: the reference
    loop, whose mean over a pass is the unit for that pass's operation
    times, and set-up samples spread over the whole run.  Every pass runs
    the same inputs, so each latency figure is taken per pass and the
    median over passes is reported: one disturbed pass cannot move it, and
    memory does not grow with the number of operations.
    """
    attempted = failed = 0
    total_s = total_ref = 0.0
    per_pass: dict[str, list[float]] = {"p50_s": [], "tail_s": [], "p50_ref": [], "tail_ref": []}
    start = time.perf_counter()
    setup_once()  # also writes the bytecode cache, so it is not counted
    setup = [setup_once()]
    next_setup = time.perf_counter() + SETUP_SPACING_S
    ref_times = [reference_s()]

    def off_clock() -> float:
        """Samples the reference loop, and set-up time every SETUP_SPACING_S; returns the seconds spent."""
        nonlocal next_setup
        begin = time.perf_counter()
        ref_times.append(reference_s())
        if len(setup) < SETUP_SAMPLES and begin >= next_setup:
            setup.append(setup_once())
            next_setup = begin + SETUP_SPACING_S
        return time.perf_counter() - begin

    while True:
        first = len(ref_times) - 1
        batch = workload.run_pass(off_clock)
        off_clock()
        ref = statistics.fmean(ref_times[first:])
        attempted += len(batch)
        failed += sum(1 for _, ok in batch if not ok)
        times = sorted(t for t, _ in batch)
        total_s += sum(times)
        total_ref += sum(times) / ref
        for unit, scale in (("s", 1.0), ("ref", 1 / ref)):
            per_pass[f"p50_{unit}"].append(statistics.median(times) * scale)
            per_pass[f"tail_{unit}"].append(tail(times) * scale)
        if time.perf_counter() - start >= seconds:
            break
    median = {key: statistics.median(values) for key, values in per_pass.items()}
    return attempted, failed, {
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "op_p50_ms": (median["p50_s"] * 1e3, "ms"),
        "op_tail_ms": (median["tail_s"] * 1e3, "ms"),
        "ops_per_s": (attempted / total_s, "1/s"),
        "op_p50_ref": (median["p50_ref"], "ref"),
        "op_tail_ref": (median["tail_ref"], "ref"),
        "ops_per_ref": (attempted / total_ref, "1/ref"),
        "setup_s": (statistics.median(r for _, r in setup) * NOMINAL_S, "s"),
        "setup_wall_s": (statistics.median(s for s, _ in setup), "s"),
        "reference_ms": (statistics.median(ref_times) * 1e3, "ms"),
    }


def trace(workload) -> tuple[list[tuple[float, bool]], dict[str, float], dict]:
    """One untraced pass, then one traced pass: per-layer metrics and the span tree of the traced one."""
    start = time.perf_counter()
    ops = workload.run_pass()
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        ops += tracer.span("bench.pass", workload.run_pass)
        traced_s = time.perf_counter() - start
    values = tracer.layer_metrics()
    values["tracing_overhead_s"] = traced_s - untraced_s
    dump = tracer.to_json()
    dump.update(workload=workload.name, untraced_s=untraced_s, traced_s=traced_s)
    return ops, values, dump


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bettiforge" / "__init__.py").is_file():
        print(f"error: no bettiforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bettiforge

    if Path(bettiforge.__file__).resolve().parent != SRC / "bettiforge":
        print(f"error: imported bettiforge from {bettiforge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)  # inputs: stdlib only, from the seed

    workload.prepare()  # references, untimed
    info = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    if args.trace:
        ops, values, dump = trace(workload)
        attempted, failed = len(ops), sum(1 for _, ok in ops if not ok)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dict(dump, seed=args.seed), indent=1) + "\n")
        info["trace_file"] = path.relative_to(ROOT).as_posix()
    else:
        attempted, failed, figures = measure(workload, args.seconds)
        figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {m["name"]: figures[m["name"]] for m in END_TO_END}
        named = {
            name: {"value": figures[key][0] * scale, "unit": unit}
            for name, key, scale, unit in _AS_NAMED[args.workload]
        }
        named["failed_ratio"] = {"value": 1 - figures["ok_ratio"][0], "unit": "ratio"}
        for name in ("setup_s", "setup_wall_s", "peak_rss_mb", "reference_ms"):
            named[name] = {"value": figures[name][0], "unit": figures[name][1]}
        info["as_named"] = named
        info["samples"] = attempted
        if args.workload == "check-mix":
            info["check_mix_reference"] = "recorded" if workload.recorded else "none for this seed"
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
