"""Tests of the benchmark itself: seeded inputs, references, and the tracer's bindings.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bettiforge import aci, cli, gorenstein  # noqa: E402


def _all_inputs(seed: int) -> str:
    return json.dumps(
        [inputs.check_mix(seed), inputs.structure_presentations(seed), inputs.generic_matrices(seed)]
    )


def test_same_seed_gives_identical_inputs():
    assert _all_inputs(3) == _all_inputs(3)


def test_different_seeds_differ_and_keep_every_stratum():
    assert _all_inputs(3) != _all_inputs(4)
    for seed in (3, 4):
        strata = [item[0] for item in inputs.check_mix(seed)]
        assert {s: strata.count(s) for s in inputs.STRATA} == {s: inputs.PER_STRATUM for s in inputs.STRATA}
    assert inputs.structure_presentations(3) != inputs.structure_presentations(4)
    assert inputs.generic_matrices(3) != inputs.generic_matrices(4)


def test_check_mix_matches_recorded_reference():
    refs = workloads.load_check_mix_refs()
    assert 0 in refs
    w = workloads.CheckMixWorkload(0)
    ops = w.run_pass()
    assert len(ops) == len(inputs.STRATA) * inputs.PER_STRATUM
    assert all(ok for _, ok in ops)


def test_reference_mismatch_counts_as_failure():
    w = workloads.CheckMixWorkload(0)
    md5, admissible, stage3 = w.recorded
    w.recorded = (md5, admissible + 1, stage3 - 1)
    assert not any(ok for _, ok in w.run_pass())


def test_structure_and_pfaffian_outputs_match_references():
    for cls in (workloads.StructureWorkload, workloads.PfaffianWorkload):
        w = cls(5)
        w.prepare()
        [(_, ok)] = w.run_pass()
        assert ok, cls.name
        w.calls = [(argv, stdin_text, expected + " ") for argv, stdin_text, expected in w.calls]
        [(_, ok)] = w.run_pass()
        assert not ok, cls.name


def _target_bindings() -> dict:
    """Every attribute the tracer may patch, mapped to its current object."""
    out = {}
    for _, module_name, path in spans.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        module = sys.modules[f"bettiforge.{module_name}"]
        owner = getattr(module, owner_name) if owner_name else module
        out[(module_name, path)] = owner.__dict__.get(attr)
    for name in ("gaeta_diesel_violation", "mci_from_sorted", "check_gorenstein_betti", "mci"):
        out[("aci", name)] = vars(aci)[name]
    for name in ("enumerate_admissible", "check_betti", "build_aci_complex", "verify_complex", "parse_matrix"):
        out[("cli", name)] = vars(cli)[name]
    return out


def test_tracer_binds_where_names_are_looked_up_and_unbinds():
    before = _target_bindings()
    untraced = [json.dumps(b.to_json(), sort_keys=True) for b in aci.enumerate_admissible(14, 5)]
    tracer = spans.Tracer()
    with tracer:
        assert aci.gaeta_diesel_violation is gorenstein.gaeta_diesel_violation
        assert aci.mci_from_sorted is gorenstein.mci_from_sorted
        assert hasattr(aci.gaeta_diesel_violation, "__wrapped__")
        for name in ("enumerate_admissible", "check_betti"):
            assert vars(cli)[name] is vars(aci)[name]
        traced = [json.dumps(b.to_json(), sort_keys=True) for b in aci.enumerate_admissible(14, 5)]
    assert _target_bindings() == before
    assert hashlib.md5("\n".join(traced).encode()).digest() == hashlib.md5("\n".join(untraced).encode()).digest()
    m = tracer.layer_metrics()
    # anchors measured at the seed commit
    assert m["gorenstein.gaeta_diesel.calls"] == 168333
    assert m["gorenstein.mci.calls"] == 41172
    assert m["aci.check_betti.calls"] == 4222
    assert m["multiset.built"] == 194566
    assert m["aci.enumerate.emitted"] == 4222 == len(untraced)


@pytest.fixture(scope="module")
def traced_metrics():
    """Per-layer metrics of one traced pass of each workload; enumerate runs at (12,5) to stay quick."""
    class SmallEnumerate(workloads.EnumerateWorkload):
        def run_pass(self, probe=None):
            argv = ["enumerate", "--max-degree", "12", "--max-f", "5"]
            return [workloads._timed(lambda: workloads.run_cli(argv, sink=workloads._HashSink())[0] == 0)]

    out = {}
    small = SmallEnumerate(0)
    for name, w in (
        (metrics.ENUMERATE, small),
        (metrics.CHECK, workloads.CheckMixWorkload(1)),
        (metrics.STRUCTURE, workloads.StructureWorkload(1)),
        (metrics.PFAFFIAN, workloads.PfaffianWorkload(1)),
    ):
        w.prepare()
        ops, values, dump = run.trace(w)
        assert all(ok for _, ok in ops), name
        assert dump["roots"] and dump["roots"][0]["name"] == "bench.pass"
        out[name] = values
    return out


def test_traced_run_emits_every_per_layer_metric(traced_metrics):
    names = {m["name"] for m in metrics.PER_LAYER}
    for values in traced_metrics.values():
        assert set(values) == names


def test_counts_are_nonzero_where_the_layer_works(traced_metrics):
    for m in metrics.PER_LAYER:
        if m["unit"] != "count":
            continue
        for workload in m["on"]:
            assert traced_metrics[workload][m["name"]] > 0, (m["name"], workload)


@pytest.mark.parametrize(
    "name, idle_on",
    [
        ("exact.poly_mul.calls", (metrics.ENUMERATE, metrics.CHECK)),
        ("exact.matmul.calls", (metrics.ENUMERATE, metrics.CHECK, metrics.PFAFFIAN)),
        ("pfaffian.submaximal.calls", (metrics.ENUMERATE, metrics.CHECK)),
        ("gorenstein.gaeta_diesel.calls", (metrics.CHECK, metrics.STRUCTURE, metrics.PFAFFIAN)),
        ("gorenstein.check.calls", (metrics.STRUCTURE, metrics.PFAFFIAN)),
        ("aci.check_betti.calls", (metrics.STRUCTURE, metrics.PFAFFIAN)),
        ("aci.enumerate.emitted", (metrics.CHECK, metrics.STRUCTURE, metrics.PFAFFIAN)),
        ("multiset.built", (metrics.PFAFFIAN,)),
    ],
)
def test_bypassed_layers_do_no_work(traced_metrics, name, idle_on):
    for workload in idle_on:
        assert traced_metrics[workload][name] == 0, workload


def test_check_mix_verdict_counts_describe_the_mix(traced_metrics):
    v = traced_metrics[metrics.CHECK]
    n = inputs.PER_STRATUM
    assert v["aci.verdicts.stage1"] == 2 * n
    assert v["aci.verdicts.stage2"] == n
    assert v["aci.verdicts.admissible"] + v["aci.verdicts.stage3"] == n
    assert v["aci.check_betti.calls"] == 4 * n


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == list(metrics.END_TO_END)
    assert spec["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in metrics.PER_LAYER
    ]


def test_run_without_program_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-mix", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
