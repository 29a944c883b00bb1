"""Experiment runner: seeding, tool wiring, compatibility gates."""

import pytest

from repro.errors import ToolUnsupportedError
from repro.experiments.runner import run_monitored, run_trials
from repro.sim.clock import ms
from repro.tools.limit import LimitTool
from repro.tools.null import NullTool
from repro.tools.registry import create_tool
from repro.workloads.dgemm import MklDgemm
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES")


class TestRunMonitored:
    def test_same_seed_is_bit_identical(self):
        program = UniformComputeWorkload(1e7)
        a = run_monitored(program, create_tool("k-leb"), events=EVENTS,
                          period_ns=ms(10), seed=11)
        b = run_monitored(program, create_tool("k-leb"), events=EVENTS,
                          period_ns=ms(10), seed=11)
        assert a.wall_ns == b.wall_ns
        assert a.report.totals == b.report.totals
        assert [s.timestamp for s in a.report.samples] == \
            [s.timestamp for s in b.report.samples]

    def test_different_seed_differs(self):
        # Long enough (~190 ms) that OS-noise arrivals differ by seed.
        program = UniformComputeWorkload(5e8)
        a = run_monitored(program, NullTool(), seed=1)
        b = run_monitored(program, NullTool(), seed=2)
        assert a.wall_ns != b.wall_ns

    def test_limit_gets_patched_old_kernel(self):
        program = UniformComputeWorkload(1e7)
        result = run_monitored(program, LimitTool(), events=EVENTS,
                               period_ns=ms(10), seed=0)
        kernel = result.kernel
        assert "limit" in kernel.patches
        assert kernel.config.kernel_version == "2.6.32"

    def test_other_tools_get_stock_kernel(self):
        result = run_monitored(UniformComputeWorkload(1e6),
                               create_tool("k-leb"), events=EVENTS, seed=0)
        assert result.kernel.patches == set()
        assert result.kernel.config.kernel_version == "4.13"

    def test_incompatible_pairing_raises(self):
        with pytest.raises(ToolUnsupportedError):
            run_monitored(MklDgemm(128), LimitTool(), events=EVENTS, seed=0)

    def test_victim_counted_from_first_instruction(self):
        """The stopped-spawn handshake: no warm-up loss."""
        result = run_monitored(UniformComputeWorkload(123456),
                               create_tool("k-leb"), events=EVENTS,
                               period_ns=ms(10), seed=0)
        assert result.report.totals["INST_RETIRED"] == pytest.approx(
            123456, abs=1
        )


class TestRunTrials:
    def test_trial_count(self):
        results = run_trials(UniformComputeWorkload(1e6), NullTool(), runs=4)
        assert len(results) == 4

    def test_trials_use_distinct_seeds(self):
        results = run_trials(UniformComputeWorkload(5e8), NullTool(), runs=3)
        walls = [result.wall_ns for result in results]
        assert len(set(walls)) > 1

    def test_earlier_trials_kernels_are_released(self):
        """A finished trial's ``Kernel`` (and the machine and caches it
        owns) must be garbage by the time the next trial attaches, so a
        population's memory is one trial's worth, not two."""
        import gc
        import weakref

        class KernelWatchingTool(NullTool):
            def __init__(self):
                super().__init__()
                self.kernels = []
                self.alive_at_attach = []

            def attach(self, kernel, task, events, period_ns):
                gc.collect()
                self.alive_at_attach.append(
                    sum(ref() is not None for ref in self.kernels))
                self.kernels.append(weakref.ref(kernel))
                return super().attach(kernel, task, events, period_ns)

        tool = KernelWatchingTool()
        run_trials(UniformComputeWorkload(1e6), tool, runs=3)
        assert tool.alive_at_attach == [0, 0, 0]


class TestWallNsGuard:
    def test_unexited_victim_raises_instead_of_zero(self):
        """Regression: a victim that never exited used to report
        wall_ns == 0, silently dragging overhead means toward zero."""
        from repro.errors import KernelError
        from repro.experiments.runner import RunResult
        from repro.kernel.process import Task
        from repro.tools.base import SampleColumns, ToolReport

        victim = Task(pid=1, name="stuck", program=UniformComputeWorkload(1e6))
        assert victim.wall_time_ns is None
        report = ToolReport(tool="none", events=[], period_ns=ms(10),
                            samples=SampleColumns(), totals={}, victim_wall_ns=0,
                            victim_pid=1)
        result = RunResult(report=report, victim=victim, kernel=None)
        with pytest.raises(KernelError):
            result.wall_ns

    def test_exited_victim_reports_wall(self):
        result = run_monitored(UniformComputeWorkload(1e6), NullTool(), seed=0)
        assert result.wall_ns > 0


class TestTrialSummary:
    def test_run_trials_returns_summaries(self):
        from repro.experiments.runner import TrialSummary

        results = run_trials(UniformComputeWorkload(1e6), NullTool(), runs=2,
                             base_seed=7)
        assert all(isinstance(r, TrialSummary) for r in results)
        assert [r.trial for r in results] == [0, 1]
        assert [r.seed for r in results] == [7, 8]

    def test_summary_matches_run_result(self):
        from repro.experiments.runner import summarize_trial

        result = run_monitored(UniformComputeWorkload(1e6),
                               create_tool("k-leb"), events=EVENTS,
                               period_ns=ms(10), seed=3)
        summary = summarize_trial(result, trial=0, seed=3)
        assert summary.wall_ns == result.wall_ns
        assert summary.cpu_ns == result.cpu_ns
        assert summary.report is result.report
        assert summary.sample_count == result.report.sample_count

    def test_summary_is_picklable(self):
        import pickle

        results = run_trials(UniformComputeWorkload(1e6),
                             create_tool("k-leb"), runs=1, events=EVENTS,
                             period_ns=ms(10))
        clone = pickle.loads(pickle.dumps(results[0]))
        assert clone == results[0]
