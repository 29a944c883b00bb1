"""perf record event-period (PMI overflow) sampling mode."""

import pytest

from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms, seconds
from repro.tools.perf import PerfRecordTool
from repro.workloads.base import ListProgram, RateBlock
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES")


class TestConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ToolError):
            PerfRecordTool(mode="psychic")

    def test_invalid_period_rejected(self):
        with pytest.raises(ToolError):
            PerfRecordTool(mode="event", event_period=0)

    def test_no_events_rejected(self, kernel):
        task = kernel.spawn(UniformComputeWorkload(1e6), start=False)
        with pytest.raises(ToolError):
            PerfRecordTool(mode="event").attach(kernel, task, (), ms(10))

    def test_fixed_sampled_event_rejected(self, kernel):
        """A fixed counter raises no PMI in this PMU model."""
        task = kernel.spawn(UniformComputeWorkload(1e6), start=False)
        with pytest.raises(ToolError, match="INST_RETIRED"):
            PerfRecordTool(mode="event").attach(
                kernel, task, ("INST_RETIRED", "LOADS"), ms(10))


class TestSampledSlot:
    def test_sampled_event_armed_on_its_assigned_counter(self, kernel):
        """UOPS_EXEC_PORT3 may use only counters 2 and 3: it is armed
        on the counter the assignment gave it, and LOADS keeps 0."""
        program = ListProgram("ports", [
            RateBlock(instructions=1e8,
                      rates={"UOPS_EXEC_PORT3": 0.2, "LOADS": 0.3}),
        ])
        victim = kernel.spawn(program, start=False)
        session = PerfRecordTool(mode="event", event_period=1_000_000) \
            .attach(kernel, victim, ("UOPS_EXEC_PORT3", "LOADS"), ms(10))
        assert kernel.pmu.counter_event(0) == "LOADS"
        assert kernel.pmu.counter_event(2) == "UOPS_EXEC_PORT3"
        kernel.run_until_exit(victim, deadline=seconds(5))
        report = session.finalize()
        assert report.metadata["pmi_count"] == pytest.approx(20, abs=1)
        assert report.totals["LOADS"] == pytest.approx(3e7, rel=0.05)


class TestEventPeriodSampling:
    def test_sample_count_matches_event_volume(self):
        """6e7 loads at a 2e6 period -> 30 PMIs, independent of time."""
        program = UniformComputeWorkload(2e8)  # LOADS rate 0.30 -> 6e7 loads
        result = run_monitored(
            program, PerfRecordTool(mode="event", event_period=2_000_000),
            events=EVENTS, period_ns=ms(10), seed=0,
        )
        assert result.report.metadata["event_mode"] == 1.0
        assert result.report.metadata["pmi_count"] == pytest.approx(30, abs=1)

    def test_period_estimate_of_sampled_event(self):
        program = UniformComputeWorkload(2e8)
        result = run_monitored(
            program, PerfRecordTool(mode="event", event_period=2_000_000),
            events=EVENTS, period_ns=ms(10), seed=0,
        )
        true_loads = 0.30 * 2e8
        estimate = result.report.totals["LOADS"]
        # samples x period: within one period of the truth.
        assert abs(estimate - true_loads) <= 2_000_000

    def test_unsampled_events_still_counted_exactly(self):
        program = UniformComputeWorkload(2e8)
        result = run_monitored(
            program, PerfRecordTool(mode="event", event_period=2_000_000),
            events=EVENTS, period_ns=ms(10), seed=0,
        )
        # Within record-mode's inherent tail loss (the stores after the
        # final PMI are not in the sample file).
        assert result.report.totals["STORES"] == pytest.approx(
            0.12 * 2e8, rel=0.05
        )

    def test_sampling_density_follows_activity(self):
        """An activity-proportional sampler puts samples where the
        loads are — unlike a wall-clock timer."""
        program = ListProgram("phased", [
            RateBlock(instructions=1e8, rates={"LOADS": 0.6},
                      label="load-heavy"),
            RateBlock(instructions=1e8, rates={"LOADS": 0.05},
                      label="load-light"),
        ])
        result = run_monitored(
            program, PerfRecordTool(mode="event", event_period=2_000_000),
            events=("LOADS",), period_ns=ms(10), seed=0,
        )
        samples = result.report.samples
        # Phase boundary is halfway through the run (equal instructions).
        boundary = result.victim.start_time + result.wall_ns // 2
        heavy = sum(1 for sample in samples if sample.timestamp <= boundary)
        light = len(samples) - heavy
        assert heavy > 5 * max(light, 1)

    def test_isolation_still_holds(self):
        """PMIs only fire for the monitored task's events."""
        from repro.hw.machine import Machine
        from repro.hw.presets import i7_920
        from repro.kernel.kernel import Kernel
        from repro.sim.clock import seconds
        from repro.sim.rng import RngStreams

        kernel = Kernel(Machine(i7_920()), rng=RngStreams(0))
        victim = kernel.spawn(UniformComputeWorkload(5e7), start=False)
        kernel.spawn(UniformComputeWorkload(2e8, name="bystander"))
        session = PerfRecordTool(mode="event", event_period=1_000_000) \
            .attach(kernel, victim, EVENTS, ms(10))
        kernel.run_until_exit(victim, deadline=seconds(5))
        report = session.finalize()
        # Victim loads: 0.3 * 5e7 = 1.5e7 -> ~15 PMIs.  Counting the
        # bystander too would have tripled that.
        assert report.metadata["pmi_count"] == pytest.approx(15, abs=1)
