"""The benchmark's metrics, and which end-to-end figure each layer metric should move.

``BENCHMARK.json`` lists the same metrics; ``test_bench.py`` checks that
the two agree.

End-to-end metrics are measured untraced (``--trace 0``) on every
workload.  The host this benchmark was built on (2 vCPUs, shared) changes
speed by more than ten percent within seconds: a fixed pure-Python loop
timed back to back for 40 s had one-second medians from 36 to 59 ms.  So
operation times are gated relative to that loop, timed in the same
process between passes and during long operations (``yardstick.py``):
``op_p50_ref`` is the median operation time in reference-loop units.
``setup_s`` (import plus first-call set-up in a fresh interpreter,
median over samples spread through the run) is likewise divided by the
loop timed in that interpreter, and converted back to seconds at the
loop's nominal speed; its raw wall median is ``setup_wall_s`` on the
line before the result.
Latencies are taken per pass over the inputs and the median over passes
is reported.  ``op_tail_ref`` is a pass's 99th percentile where a pass
has at least 1000 operations (check-mix: 6000), else the highest
percentile with ten operations beyond it, but at least the median; with
one operation per pass it equals ``op_p50_ref``.  The wall-clock figures under the workload's own names (``enumerate_s``,
``check_per_s``, ``check_p50_us``, ``check_p99_us``, ``structure_s``,
``pfaffian_s``) are printed on the line before the result.  ``ok_ratio``
is 1 - ``failed_ratio``, named so that it is never 0.
"""

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
    {"name": "op_p50_ref", "unit": "ref", "better": "lower", "bound": 0.15},
    {"name": "op_tail_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "ops_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.15},
)

ENUMERATE = "enumerate-16-6"
CHECK = "check-mix"
STRUCTURE = "structure-7-11"
PFAFFIAN = "pfaffian-generic"
ALL = (ENUMERATE, CHECK, STRUCTURE, PFAFFIAN)


def _m(name, unit, moves, on, bypass=()):
    # fewer calls and less time are better; ratios of useful outcomes and the
    # counts that describe the check-mix stream are not lowered by an optimisation
    better = "higher" if unit == "ratio" or name.startswith(("aci.verdicts.", "aci.enumerate.")) else "lower"
    return {"name": name, "unit": unit, "better": better, "moves": moves, "on": on, "bypass": bypass}


# moves: end-to-end figures (by the workload's own names) the metric should
# move; on: workloads where the layer works; bypass: workloads where the
# prediction for a change to that layer is no change.
PER_LAYER = (
    _m("multiset.built", "count", ("check_per_s", "check_p50_us", "enumerate_s"), (CHECK, ENUMERATE), (STRUCTURE,)),
    _m("multiset.self_s", "s", ("check_per_s", "check_p50_us", "enumerate_s"), (CHECK, ENUMERATE), (STRUCTURE,)),
    _m("gorenstein.gaeta_diesel.calls", "count", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("gorenstein.gaeta_diesel.self_s", "s", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("gorenstein.mci.calls", "count", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("gorenstein.gd_pass_ratio", "ratio", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("gorenstein.check.calls", "count", ("check_per_s",), (CHECK, ENUMERATE), (STRUCTURE,)),
    _m("gorenstein.self_s", "s", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("aci.enumerate.emitted", "count", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("aci.enumerate.yield", "ratio", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("aci.self_s", "s", ("enumerate_s",), (ENUMERATE,), (CHECK,)),
    _m("aci.check_betti.calls", "count", ("enumerate_s", "check_per_s"), (ENUMERATE, CHECK)),
    _m("aci.check_betti.self_s", "s", ("enumerate_s", "check_per_s"), (ENUMERATE, CHECK)),
    _m("aci.decompose.calls", "count", ("enumerate_s", "check_per_s"), (ENUMERATE, CHECK)),
    _m("aci.decompose.self_s", "s", ("enumerate_s", "check_per_s"), (ENUMERATE, CHECK)),
    _m("aci.verdicts.admissible", "count", (), (CHECK,)),
    _m("aci.verdicts.stage1", "count", (), (CHECK,)),
    _m("aci.verdicts.stage2", "count", (), (CHECK,)),
    _m("aci.verdicts.stage3", "count", (), (CHECK,)),
    _m("exact.poly_mul.calls", "count", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.poly_mul.self_s", "s", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.poly_add.calls", "count", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.poly_add.self_s", "s", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.matmul.calls", "count", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.coeff_bits.max", "bits", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.self_s", "s", ("structure_s",), (STRUCTURE,), (PFAFFIAN,)),
    _m("exact.parse.self_s", "s", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.submaximal.calls", "count", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.submaximal.self_s", "s", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.pfaffian.calls", "count", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.pfaffian.self_s", "s", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.adjoint.self_s", "s", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("pfaffian.self_s", "s", ("structure_s", "pfaffian_s"), (STRUCTURE, PFAFFIAN)),
    _m("structure.build.self_s", "s", ("structure_s",), (STRUCTURE,)),
    _m("structure.verify.self_s", "s", ("structure_s",), (STRUCTURE,)),
    _m("cli.self_s", "s", ("enumerate_s",), (ENUMERATE,)),
    _m("tracing_overhead_s", "s", (), ALL),
)
