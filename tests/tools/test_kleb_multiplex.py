"""K-LEB time-multiplexing: rotation, scaled estimates, determinism."""

import pytest

from repro.errors import ToolError
from repro.experiments.runner import run_monitored, run_trials
from repro.faults import FaultInjector, FaultPlan
from repro.hw import events as ev
from repro.hw import schedule
from repro.sim.clock import ms, seconds, us
from repro.tools.base import SampleColumns
from repro.tools.kleb import KLebTool
from repro.tools.kleb.module import KLebModule, KLebModuleConfig
from repro.workloads.synthetic import UniformComputeWorkload


def report_document(report):
    """Lossless JSON document for bit-identity comparisons."""
    return {
        "tool": report.tool,
        "events": list(report.events),
        "period_ns": report.period_ns,
        "victim_wall_ns": report.victim_wall_ns,
        "victim_pid": report.victim_pid,
        "totals": dict(report.totals),
        "metadata": dict(report.metadata),
        "samples": [
            {"timestamp": sample.timestamp, "values": dict(sample.values)}
            for sample in report.samples
        ],
    }

FOUR_EVENTS = ("LOADS", "STORES", "BRANCHES", "BRANCH_MISSES")
EIGHT_EVENTS = FOUR_EVENTS + ("LLC_REFERENCES", "LLC_MISSES",
                              "ARITH_MUL", "FP_OPS")


def mux_run(events=EIGHT_EVENTS, mux_ns=ms(1), instructions=2e7, seed=2,
            **kwargs):
    return run_monitored(
        UniformComputeWorkload(instructions),
        KLebTool(multiplex_period_ns=mux_ns),
        events=events, period_ns=us(100), seed=seed, **kwargs,
    )


class TestValidation:
    def test_mux_period_below_timer_period_rejected(self):
        config = KLebModuleConfig(events=list(FOUR_EVENTS),
                                  period_ns=us(100),
                                  multiplex_period_ns=us(50))
        with pytest.raises(ToolError, match="at least one timer period"):
            config.validate()

    def test_oversubscription_without_mux_still_rejected(self):
        config = KLebModuleConfig(events=list(EIGHT_EVENTS),
                                  period_ns=us(100))
        with pytest.raises(ToolError, match="multiplex"):
            config.validate()

    def test_oversubscription_with_mux_accepted(self):
        config = KLebModuleConfig(events=list(EIGHT_EVENTS),
                                  period_ns=us(100),
                                  multiplex_period_ns=ms(1))
        config.validate()


class TestSingleGroup:
    def test_single_group_mux_totals_equal_non_mux_exactly(self):
        """When the events fit one group there is nothing to rotate:
        the mux accounting must reduce to plain counting, bit for bit."""
        plain = run_monitored(
            UniformComputeWorkload(2e7), KLebTool(),
            events=FOUR_EVENTS, period_ns=us(100), seed=2,
        )
        muxed = mux_run(events=FOUR_EVENTS)
        assert muxed.report.totals == plain.report.totals

    def test_single_group_reports_no_rotations(self):
        muxed = mux_run(events=FOUR_EVENTS)
        assert muxed.report.metadata["multiplex_groups"] == 1.0
        assert muxed.report.metadata["multiplex_rotations"] == 0.0


class TestRotation:
    @pytest.fixture(scope="class")
    def eight(self):
        return mux_run()

    def test_more_events_than_counters_succeeds(self, eight):
        assert set(eight.report.totals) >= set(EIGHT_EVENTS)

    def test_rotations_happen_and_are_reported(self, eight):
        metadata = eight.report.metadata
        assert metadata["multiplex_groups"] == 2.0
        assert metadata["multiplex_rotations"] >= 2
        assert metadata["multiplex_enabled_cycles"] > 0
        assert 0 < metadata["multiplex_min_running_cycles"] < \
            metadata["multiplex_enabled_cycles"]

    def test_samples_carry_every_event(self, eight):
        last = eight.report.samples[-1]
        for name in EIGHT_EVENTS:
            assert name in last.values

    def test_scaled_estimates_near_ground_truth(self, eight):
        """A uniform-rate workload: the estimate raw*(enabled/running)
        must land within a fraction of a percent of the full count."""
        truth = run_monitored(
            UniformComputeWorkload(2e7), KLebTool(),
            events=FOUR_EVENTS, period_ns=us(100), seed=2,
        ).report.totals
        for name in FOUR_EVENTS:
            if truth[name] == 0:
                continue
            estimate = eight.report.totals[name]
            assert estimate == pytest.approx(truth[name], rel=0.02), name

    def test_fixed_counters_exact_under_mux(self, eight):
        assert eight.report.totals["INST_RETIRED"] == \
            pytest.approx(2e7, rel=1e-6)

    def test_report_samples_are_columnar(self, eight):
        samples = eight.report.samples
        assert isinstance(samples, SampleColumns)
        assert samples.names == (
            ev.FIXED_EVENTS + schedule.plan_groups(EIGHT_EVENTS).rotated_names)


class TestRowFormat:
    """Rotation never changes the row schema: a multiplexed session
    drains the same columnar batches as any other session."""

    def test_read_returns_fixed_then_rotated_columns(self, kernel):
        module = kernel.load_module(KLebModule())
        victim = kernel.spawn(UniformComputeWorkload(1e7))
        module.ioctl("config", KLebModuleConfig(
            events=list(EIGHT_EVENTS), period_ns=us(100),
            multiplex_period_ns=us(500)))
        module.ioctl("start", victim.pid)
        kernel.run_until_exit(victim, deadline=seconds(1))
        assert module.mux.rotations >= 2
        batch = module.read()
        assert isinstance(batch, SampleColumns)
        assert batch.names == (ev.FIXED_EVENTS
                               + module.mux.plan.rotated_names)
        assert len(batch) == module.buffer.total_pushed
        # Cumulative raw counts: every rotated column is non-decreasing.
        for name in module.mux.plan.rotated_names:
            column = list(batch.column(name))
            assert column == sorted(column), name


class TestFaultInteraction:
    def test_wrap_preload_does_not_double_count(self):
        """A pmu_wrap preload seeds group-0 counters just below 2^48;
        rotation then deschedules and re-arms them.  The overflow must
        be accounted exactly once, so scaled totals stay within the
        ordinary estimation error of an unfaulted run."""
        clean = mux_run()
        injector = FaultInjector(FaultPlan(seed=3, pmu_wrap_margin=100_000))
        faulted = mux_run(faults=injector)
        wraps = [record for record in injector.ledger.records
                 if record.kind == "wrap-preload"]
        assert wraps  # the fault actually fired
        for name in EIGHT_EVENTS:
            if clean.report.totals[name] == 0:
                continue
            assert faulted.report.totals[name] == pytest.approx(
                clean.report.totals[name], rel=0.02), name


class TestDeterminism:
    def test_jobs_do_not_change_multiplexed_results(self):
        tool = KLebTool(multiplex_period_ns=ms(1))
        serial = run_trials(
            UniformComputeWorkload(5e6), tool, runs=4,
            events=EIGHT_EVENTS, period_ns=us(100), base_seed=5, jobs=1,
        )
        parallel = run_trials(
            UniformComputeWorkload(5e6), tool, runs=4,
            events=EIGHT_EVENTS, period_ns=us(100), base_seed=5, jobs=4,
        )
        docs_serial = [report_document(summary.report) for summary in serial]
        docs_parallel = [report_document(summary.report)
                         for summary in parallel]
        assert docs_serial == docs_parallel

    def test_same_seed_same_fault_plan_bit_identical(self):
        plan = FaultPlan(seed=7, pmu_wrap_margin=100_000)
        first = mux_run(faults=FaultInjector(plan))
        second = mux_run(faults=FaultInjector(plan))
        assert report_document(first.report) == \
            report_document(second.report)
