"""Adaptive-control observability: lazy metric families, trace
instants, and deterministic merge of control metrics across workers.

The observation, step and frozen counters are projections of the
controller's own counts (the same ones report metadata reads), so
these tests check their shape, not their agreement with metadata."""

import json

import pytest

from repro.control import ControlConfig
from repro.experiments.runner import run_monitored, run_trials
from repro.faults import FaultInjector, FaultPlan
from repro.obs import hooks
from repro.obs.metrics import parse_prometheus_text
from repro.sim.clock import ms, us
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.synthetic import PhaseShiftWorkload

_EVENTS = ("LOADS", "STORES", "ARITH_MUL", "LLC_MISSES")
_PHASES = (25e6, 20e6, 30e6, 22e6)

_CONTROL_FAMILIES = (
    "control_observations_total", "control_steps_total",
    "control_ladder_level_high_water", "control_overhead_percent",
    "hrtimer_reprogram_total", "control_frozen_observations_total",
)


@pytest.fixture(autouse=True)
def _reset_recorder():
    yield
    hooks.reset()


def _adaptive_tool(budget: float = 0.3) -> KLebTool:
    return KLebTool(control=ControlConfig(
        overhead_budget_percent=budget,
        min_period_ns=us(100), max_period_ns=ms(10)))


def _recorded_run(tool, faults=None, seed=0):
    recorder = hooks.Recorder()
    hooks.install(recorder)
    try:
        result = run_monitored(
            PhaseShiftWorkload.alternating(_PHASES), tool,
            events=_EVENTS, period_ns=ms(1), seed=seed, faults=faults,
        )
    finally:
        hooks.reset()
    return (result.report,
            json.loads(recorder.tracer.to_chrome_json()),
            parse_prometheus_text(recorder.registry.to_prometheus()))


class TestControlMetrics:
    def test_adaptive_run_exports_every_control_family(self):
        _, _, parsed = _recorded_run(_adaptive_tool())
        for family in _CONTROL_FAMILIES:
            assert family in parsed, family
        assert parsed["control_observations_total"]["samples"][""] > 0
        assert parsed["hrtimer_reprogram_total"]["samples"][""] > 0

    def test_step_counter_breaks_down_by_action(self):
        """A series per action taken, and none for an action never
        taken."""
        report, _, parsed = _recorded_run(_adaptive_tool())
        samples = parsed["control_steps_total"]["samples"]
        taken = {row["action"] for row in report.control}
        assert set(samples) == {'{action="%s"}' % action
                                for action in taken}
        assert all(value > 0 for value in samples.values())
        assert "degrade" in taken

    def test_ladder_high_water_gauge(self):
        report, _, parsed = _recorded_run(_adaptive_tool())
        high_water = parsed[
            "control_ladder_level_high_water"]["samples"][""]
        assert high_water >= report.metadata["adaptive_final_level"]
        assert high_water >= 1

    def test_non_adaptive_run_registers_no_control_families(self):
        """Lazy registration: an adaptive-off run's export is exactly
        the pre-control family set."""
        _, _, parsed = _recorded_run(create_tool("k-leb"))
        for family in _CONTROL_FAMILIES:
            assert family not in parsed, family

    def test_frozen_counter_tracks_injected_freezes(self):
        injector = FaultInjector(FaultPlan.parse(
            "seed=3,control_freeze=0.3,control_freeze_cycles=4"))
        _, _, parsed = _recorded_run(
            _adaptive_tool(budget=2.0), faults=injector, seed=1)
        assert parsed[
            "control_frozen_observations_total"]["samples"][""] > 0


class TestControlTrace:
    def test_steps_and_reprograms_leave_instants(self):
        report, trace, _ = _recorded_run(_adaptive_tool())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "control:degrade" in names
        assert "timer-reprogram" in names
        if report.metadata["adaptive_recoveries"]:
            assert "control:recover" in names

    def test_frozen_instants_in_trace(self):
        injector = FaultInjector(FaultPlan.parse(
            "seed=3,control_freeze=0.3,control_freeze_cycles=4"))
        _, trace, _ = _recorded_run(
            _adaptive_tool(budget=2.0), faults=injector, seed=1)
        names = [event["name"] for event in trace["traceEvents"]]
        assert "control-frozen" in names


class TestControlMerge:
    def test_adaptive_population_obs_identical_jobs1_vs_jobs4(self):
        """Control families are registered lazily inside worker chunks;
        the parent merge must still be byte-deterministic."""

        def population(jobs):
            recorder = hooks.Recorder()
            hooks.install(recorder)
            try:
                run_trials(
                    PhaseShiftWorkload.alternating((12e6, 9e6, 14e6)),
                    _adaptive_tool(), runs=4, events=_EVENTS[:3],
                    period_ns=ms(1), base_seed=3, jobs=jobs,
                )
            finally:
                hooks.reset()
            return (recorder.tracer.to_chrome_json(),
                    recorder.registry.to_prometheus())

        serial = population(1)
        parallel = population(4)
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
