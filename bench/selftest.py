"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/selftest.py

(The name keeps them out of the package's own test collection; the last test
runs the benchmark twice per workload and takes about three minutes.)
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import heatlab as hl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("c", 8.0, 9.5, 0, "r"),  # overlaps b: the overlap counts once
        Span("d", 9.8, 10.5, 0, "r"),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0,
                                                      4.0, 1.5, 0.7])


def test_layer_metrics_sum_self_times_per_run():
    spans = [
        Span("kernels.factorize", 0.0, 2.0, None, "s0", {"kernels.factor_vertices": 9}),
        Span("kernels._FactorBase.is_positive_definite", 0.5, 1.5, 0, "s0"),
        Span("kernels.factorize", 3.0, 4.0, None, "s1", {"kernels.factor_vertices": 5}),
    ]
    m = tracing.layer_metrics(spans, runs={"s0"})
    assert m["kernels.factorize_s"] == pytest.approx(1.0)
    assert m["kernels.pd_check_s"] == pytest.approx(1.0)
    assert m["kernels.factors"] == 1
    assert m["kernels.factor_vertices"] == 9
    assert m["kernels.queries_per_factor"] == 0.0


def test_recorder_traces_public_calls_and_restores_them():
    original = hl.kernels.factorize
    rec = tracing.Recorder()
    rec.run = "t"
    rec.install()
    try:
        fx = hl.fixture("lat1", ambient_size=33)
        ev = hl.HeatKernelEvaluator(hl.assemble(fx.domain), fx.exhaustion)
        limit = ev.heat_kernel(0, 0, 1.0)
    finally:
        rec.uninstall()
    assert hl.kernels.factorize is original
    assert hl.criticality.factorize is original
    names = {s.name for s in rec.spans}
    assert {"domains.fixture", "operators.assemble", "kernels.factorize",
            "kernels.HeatKernelEvaluator.heat_kernel", "kernels.SymmetricFactor.kernel",
            "kernels.SymmetricFactor.spectral"} <= names
    m = tracing.layer_metrics(rec.spans, runs={"t"})
    assert m["kernels.limits"] == 1
    assert m["kernels.factors"] == m["kernels.levels_evaluated"]
    assert m["kernels.certified_frac"] == float(limit.status is not hl.LimitStatus.INCONCLUSIVE)


def test_fastest_solve_takes_each_computation_at_its_fastest():
    solve_s = [10.5, 9.0, 12.0]
    computations = [{"a": 4.0, "b": 5.0}, {"a": 5.0, "b": 3.0}, {"a": 6.0, "b": 4.0}]
    # fastest a 4 (first pass), b 3 and the rest of the solve 1 (second pass)
    assert run.fastest_solve(solve_s, computations) == pytest.approx(8.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert len({json.dumps(workloads.make_inputs(workload, s)) for s in range(20)}) > 1


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in SPEC["end_to_end"])
    assert SPEC["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                 for m in tracing.LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(workload, seed):
    """A short traced run in its own process; returns the run record it wrote."""
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads((run.RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_keeps_oracles_and_cost_profile(workload):
    """Every oracle but the known failures passes on two seeds, and every
    per-layer count (the cost profile, free of timing noise) agrees within
    the solve_s bound."""
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["solve_s"]
    known = set(workloads.KNOWN_FAILURES.get(workload, {}))
    first, second = _run(workload, 1), _run(workload, 2)
    assert first["inputs"] != second["inputs"]
    for record in (first, second):
        assert record["result"]["correct"]
        assert {c["name"] for c in record["checks"] if not c["ok"]} == known
    for m in tracing.LAYER_METRICS:
        if m.unit == "count":
            a = first["result"]["metrics"][m.name]["value"]
            b = second["result"]["metrics"][m.name]["value"]
            assert abs(a - b) <= bound * max(a, b), m.name
