"""Tests of the end-to-end benchmark harness itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, tracing
from benchmarks.e2e.tracing import Calibration, LayerTracer, WRAPPER_MARK

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _synthetic_tracer():
    """Two layers with controlled durations on a fake clock.

    outer (layer 0) runs 10 ns, calls inner (layer 1, 5 ns) twice, runs
    3 ns more; the fake clock never moves on its own.
    """
    now = [0]
    tracer = LayerTracer(clock=lambda: now[0])

    def inner_body():
        now[0] += 5

    inner = tracer.wrap(inner_body, 1, "inner")

    def outer_body():
        now[0] += 10
        inner()
        inner()
        now[0] += 3

    outer = tracer.wrap(outer_body, 0, "outer")
    return tracer, outer, now


def test_self_time_subtracts_child_spans():
    tracer, outer, now = _synthetic_tracer()
    outer()
    now[0] += 7  # time outside every span
    outer_entry, inner_entry = tracer.entries[1], tracer.entries[0]
    assert (outer_entry.calls, outer_entry.self_ns) == (1, 13)
    assert (inner_entry.calls, inner_entry.self_ns) == (2, 10)
    assert outer_entry.child_calls == 2
    assert (tracer.top_calls, tracer.top_ns) == (1, 23)
    assert tracer.accounting_error(now[0]) == 0


def test_calibration_is_moved_out_of_self_times_exactly():
    tracer, outer, now = _synthetic_tracer()
    outer()
    outer()
    now[0] += 4
    wall = now[0]
    cal = Calibration(inside_ns=1.0, outside_ns=2.0)
    inner_entry, outer_entry = tracer.entries
    # Each span carries `inside` itself; each child adds `outside` to
    # its parent; top-level spans add `outside` to unattributed time.
    assert tracer.corrected_self_ns(outer_entry, cal) == 26 - 2 * 1 - 4 * 2
    assert tracer.corrected_self_ns(inner_entry, cal) == 20 - 4 * 1
    metrics = tracer.layer_metrics(wall, cal, untraced_wall_s=wall / 1e9,
                                   summary_bytes=0)
    total = sum(metrics[f"{layer.name}.self_s"] for layer in tracing.LAYERS)
    unattributed = metrics["trace.unattributed_share"] * wall / 1e9
    instrumentation = metrics["trace.instrumentation_share"] * wall / 1e9
    assert total + unattributed + instrumentation == pytest.approx(wall / 1e9)
    assert metrics["sim.calls"] == 2 and metrics["hw.core.calls"] == 4


def test_exception_closes_the_span():
    tracer = LayerTracer()

    def boom():
        raise ValueError("boom")

    wrapped = tracer.wrap(boom, 0, "boom")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.entries[0].calls == 1 and not tracer._stack


def test_wrappers_fully_removed_after_trace():
    from repro.experiments import overhead_common, runner
    from repro.hw.pmu import Pmu
    from repro.tools.kleb.tool import KLebSession

    originals = (runner.run_trials, Pmu.accumulate, KLebSession.finalize)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert getattr(runner.run_trials, WRAPPER_MARK, False)
        # Imported by name elsewhere: patched there too.
        assert overhead_common.run_trials is runner.run_trials
        assert getattr(Pmu.accumulate, WRAPPER_MARK, False)
        assert getattr(KLebSession.finalize, WRAPPER_MARK, False)
    finally:
        leftovers = tracer.uninstall()
    assert leftovers == []
    assert (runner.run_trials, Pmu.accumulate,
            KLebSession.finalize) == originals
    assert overhead_common.run_trials is runner.run_trials
    assert tracing.leaked_wrappers() == []


def test_benchmark_json_names_every_reported_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "trial_ms_p50", "trial_ms_tail", "sim_ms_per_s",
        "setup_s", "peak_rss_mb"}


def test_parallel_obs_digests_equal_jobs1_twin():
    from benchmarks.e2e.workloads import PassResult, Table2ParallelObs

    workload = Table2ParallelObs(0, smoke=True)
    parallel = workload.run_pass(PassResult())
    twin = workload.twin().run_pass(PassResult())
    assert parallel.failed == twin.failed == 0
    # Per-trial outcomes plus the exported metrics document.
    assert parallel.digests == twin.digests
    assert len(parallel.extra_digests) == 1


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower",
                           0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower",
                           0.1)[0] == "regressed"
    assert compare.verdict(parent, list(parent), "lower",
                           0.1)[0] == "unchanged"
    noisy = [10.0, 14.0] * 5
    assert compare.verdict(noisy, list(reversed(noisy)), "lower",
                           0.1)[0] == "unresolved"
    assert compare.verdict(parent[:5], parent[:5], "lower",
                           0.1)[0] == "unresolved"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_for_every_workload(trace):
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr
    runs = compare.parse_runs(completed.stdout)
    group = SPEC["per_layer" if trace == "1" else "end_to_end"]
    wanted = [metric["name"] for metric in group]
    assert [name for name, _ in runs] == [w["name"]
                                          for w in SPEC["workloads"]]
    for name, result in runs:
        assert result["correct"], (name, completed.stdout)
        assert list(result["metrics"]) == wanted
        assert result["attempted"] >= 1 and result["failed"] == 0
