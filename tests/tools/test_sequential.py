"""Sequential-runs profiling (the §VI workaround for limited counters)."""

import pytest

from repro.errors import ToolError
from repro.experiments import multiplex
from repro.experiments.runner import run_monitored
from repro.tools.kleb import KLebTool
from repro.tools.perf import PerfStatTool
from repro.tools.sequential import profile_sequentially
from repro.sim.clock import ms, us
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload

MANY_EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL",
               "LLC_MISSES", "BRANCH_MISSES", "FP_OPS")


@pytest.fixture(scope="module")
def profile():
    return profile_sequentially(
        UniformComputeWorkload(5e7), KLebTool, MANY_EVENTS,
        period_ns=ms(10), seed=0,
    )


class TestGrouping:
    def test_seven_events_need_two_runs(self, profile):
        assert len(profile.runs) == 2
        assert profile.groups[0] == list(MANY_EVENTS[:4])
        assert profile.groups[1] == list(MANY_EVENTS[4:])

    def test_duplicate_events_deduplicated(self):
        result = profile_sequentially(
            UniformComputeWorkload(1e6), KLebTool,
            ("LOADS", "LOADS", "STORES"), period_ns=ms(10),
        )
        assert len(result.runs) == 1
        assert result.events == ["LOADS", "STORES"]

    def test_runs_follow_the_counter_masks(self):
        """PORT0..2 may use only counters 0 and 1: two runs, not one."""
        ports = ("UOPS_EXEC_PORT0", "UOPS_EXEC_PORT1", "UOPS_EXEC_PORT2")
        result = profile_sequentially(
            UniformComputeWorkload(1e6), KLebTool, ports, period_ns=ms(10),
        )
        assert result.groups == [list(ports[:2]), list(ports[2:])]

    def test_fixed_events_ride_with_the_first_run(self):
        result = profile_sequentially(
            UniformComputeWorkload(1e6), KLebTool,
            ("LOADS", "STORES", "BRANCHES", "ARITH_MUL", "INST_RETIRED"),
            period_ns=ms(10),
        )
        assert len(result.runs) == 1
        assert result.groups == [["INST_RETIRED", "LOADS", "STORES",
                                  "BRANCHES", "ARITH_MUL"]]

    def test_fixed_events_alone_take_one_run(self):
        result = profile_sequentially(
            UniformComputeWorkload(1e6), KLebTool,
            ("INST_RETIRED", "CORE_CYCLES"), period_ns=ms(10),
        )
        assert len(result.runs) == 1
        assert result.totals["INST_RETIRED"] == pytest.approx(1e6, rel=1e-6)

    def test_empty_events_rejected(self):
        with pytest.raises(ToolError):
            profile_sequentially(UniformComputeWorkload(1e6), KLebTool, ())


class TestPrecision:
    def test_every_event_measured_exactly(self, profile):
        """Unlike multiplexing, every event count is precise — this is
        the point of sequential runs."""
        rates = {"LOADS": 0.30, "STORES": 0.12, "BRANCHES": 0.15,
                 "ARITH_MUL": 0.05, "LLC_MISSES": 0.0002,
                 "BRANCH_MISSES": 0.002, "FP_OPS": 0.10}
        for event, rate in rates.items():
            assert profile.totals[event] == pytest.approx(
                5e7 * rate, rel=1e-6
            ), event

    def test_fixed_counters_present(self, profile):
        assert profile.totals["INST_RETIRED"] == pytest.approx(5e7, rel=1e-6)

    def test_cost_is_n_full_runs(self, profile):
        single = profile.runs[0].wall_ns
        assert sum(run.wall_ns for run in profile.runs) > 1.8 * single

    def test_works_with_perf_stat_too(self):
        result = profile_sequentially(
            UniformComputeWorkload(5e7), PerfStatTool,
            ("LOADS", "STORES", "BRANCHES", "ARITH_MUL", "LLC_MISSES"),
            period_ns=ms(10), seed=3,
        )
        assert len(result.runs) == 2
        assert result.totals["LLC_MISSES"] == pytest.approx(
            5e7 * 0.0002, rel=1e-6
        )


class TestOneSeed:
    """Every run of a campaign replays the same seeded execution."""

    def test_every_run_uses_the_given_seed(self, profile):
        assert [run.seed for run in profile.runs] == [0, 0]

    def test_later_group_matches_a_single_run_on_the_seed(self):
        """The second group's totals are the ones one run of that group
        on ``seed`` counts.  BRANCHES on matmul moves with the seed (it
        reads 16,777,216 on seed 0 and 16,777,215 on seed 1)."""
        profile = profile_sequentially(
            TripleLoopMatmul(256), KLebTool, multiplex.EVENTS,
            period_ns=us(100), seed=0)
        group = profile.groups[1]
        assert "LLC_MISSES" in group
        single = run_monitored(TripleLoopMatmul(256), KLebTool(),
                               events=group, period_ns=us(100), seed=0)
        assert {name: profile.totals[name] for name in group} == {
            name: single.report.totals[name] for name in group}


class TestMultiplexCrosscheck:
    """``experiments.multiplex`` takes its ground truth from here."""

    @pytest.fixture(scope="class")
    def result(self):
        return multiplex.run(n=128, rotation_periods_ns=(us(500),))

    def test_truth_covers_every_event(self, result):
        assert set(multiplex.EVENTS) <= set(result.truth)

    def test_uniform_rate_events_are_exact(self, result):
        errors = result.errors_percent[us(500)]
        for name in ("LOADS", "STORES", "ARITH_MUL", "FP_OPS", "BRANCHES"):
            assert f"{errors[name]:.3f}" == "0.000", name

    def test_rotations_happen(self, result):
        assert result.rotations[us(500)] > 0
