"""End-to-end observability: trial populations, CLI outputs, report tool.

Locks the two cross-cutting guarantees:

* **Non-perturbation** — trial summaries are bit-identical with the
  recorder off and on (the golden-digest suite additionally pins the
  obs-enabled report digests against the committed hashes);
* **Deterministic merge** — a ``jobs=4`` run produces byte-identical
  trace and metrics exports to ``jobs=1``.
"""

import json

import pytest

from repro.experiments.runner import run_trials
from repro.faults import FaultPlan, RunLedger
from repro.io import load_metrics, load_trace_events
from repro.obs import hooks
from repro.obs.metrics import parse_prometheus_text
from repro.obs.report import render
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul

_EVENTS = ("LOADS", "STORES")


@pytest.fixture(autouse=True)
def _reset_recorder():
    yield
    hooks.reset()


def _run_population(jobs, runs=4, faults=None):
    recorder = hooks.Recorder()
    hooks.install(recorder)
    try:
        summaries = run_trials(
            TripleLoopMatmul(64), create_tool("k-leb"), runs=runs,
            events=_EVENTS, period_ns=ms(10), base_seed=3, jobs=jobs,
            faults=faults, fault_ledger=RunLedger() if faults else None,
        )
    finally:
        hooks.reset()
    return (summaries, recorder.tracer.to_chrome_json(),
            recorder.registry.to_prometheus())


class TestPopulationDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run_population(jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return _run_population(jobs=4)

    def test_jobs4_trace_is_byte_identical_to_serial(self, serial,
                                                     parallel):
        assert parallel[1] == serial[1]

    def test_jobs4_metrics_are_byte_identical_to_serial(self, serial,
                                                        parallel):
        assert parallel[2] == serial[2]

    def test_recording_does_not_perturb_summaries(self, serial):
        plain = run_trials(
            TripleLoopMatmul(64), create_tool("k-leb"), runs=4,
            events=_EVENTS, period_ns=ms(10), base_seed=3, jobs=1,
        )
        assert plain == serial[0]

    def test_each_trial_gets_its_own_trace_process(self, serial):
        document = json.loads(serial[1])
        pids = {event["pid"] for event in document["traceEvents"]
                if event["ph"] == "X" and event["name"] == "trial"}
        assert pids == {0, 1, 2, 3}

    def test_trial_counter_matches_population(self, serial):
        parsed = parse_prometheus_text(serial[2])
        assert parsed["trials_total"]["samples"][""] == 4


class TestSmpPopulation:
    @staticmethod
    def _exports(jobs):
        from repro.experiments.smp import run_smp_trials

        recorder = hooks.Recorder()
        hooks.install(recorder)
        try:
            run_smp_trials(2, jobs=jobs, cores=2, migrate=True,
                           service_accesses=20_000, streamer_accesses=10_000)
        finally:
            hooks.reset()
        return (recorder.tracer.to_chrome_json(),
                recorder.registry.to_prometheus())

    def test_smp_exports_identical_across_jobs(self):
        """Everything recorded inside SMP trials reaches the parent's
        exports, whether the trials ran inline or in pool workers."""
        serial = self._exports(jobs=1)
        parallel = self._exports(jobs=2)
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        fires = parse_prometheus_text(serial[1])["hrtimer_fires_total"]
        assert sum(fires["samples"].values()) > 0


class TestFaultedPopulation:
    def test_faulted_obs_identical_across_jobs(self):
        plan = "seed=9,timer_jitter=0.4,timer_miss=0.2,squeeze=0.4,read=0.3"
        serial = _run_population(1, faults=FaultPlan.parse(plan))
        parallel = _run_population(4, faults=FaultPlan.parse(plan))
        assert serial[1] == parallel[1]
        assert serial[2] == parallel[2]

    def test_fault_instants_land_in_trace(self):
        plan = FaultPlan.parse("seed=9,timer_miss=0.6,squeeze=0.6")
        _, trace, metrics = _run_population(1, faults=plan)
        document = json.loads(trace)
        fault_names = {event["name"]
                       for event in document["traceEvents"]
                       if str(event.get("name", "")).startswith("fault:")}
        parsed = parse_prometheus_text(metrics)
        landed = sum(
            value for key, value in
            parsed["faults_landed_total"]["samples"].items()
        )
        if landed:
            assert fault_names  # every landed fault left an instant


class TestReportTool:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        recorder = hooks.Recorder()
        hooks.install(recorder)
        try:
            run_trials(
                TripleLoopMatmul(64), create_tool("k-leb"), runs=2,
                events=_EVENTS, period_ns=ms(10), base_seed=3, jobs=1,
            )
        finally:
            hooks.reset()
        directory = tmp_path_factory.mktemp("obs")
        trace = directory / "t.json"
        metrics = directory / "m.prom"
        recorder.write_trace(trace)
        recorder.write_metrics(metrics)
        return trace, metrics

    def test_io_loaders_read_cli_artifacts(self, artifacts):
        trace, metrics = artifacts
        events = load_trace_events(trace)
        assert any(event.get("name") == "trial" for event in events)
        parsed = load_metrics(metrics)
        assert parsed["trials_total"]["samples"][""] == 2

    def test_render_summarizes_spans_and_drains(self, artifacts):
        trace, metrics = artifacts
        output = render(str(trace), str(metrics))
        assert "Top spans by simulated time" in output
        assert "trial" in output
        assert "Drain batch size" in output
        assert "no faults recorded" in output

    def test_render_metrics_only(self, artifacts):
        output = render(None, str(artifacts[1]))
        assert "Drain cycle latency" in output
