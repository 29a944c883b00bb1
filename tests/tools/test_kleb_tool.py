"""K-LEB tool + controller end-to-end behaviour."""

import pytest

from repro.experiments.runner import run_monitored
from repro.sim.clock import ms, us
from repro.tools.kleb import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES", "BRANCHES")


@pytest.fixture(scope="module")
def kleb_run():
    """One monitored run: ~7.5 ms victim at a 100 us rate."""
    return run_monitored(
        UniformComputeWorkload(2e7), KLebTool(), events=EVENTS,
        period_ns=us(100), seed=2,
    )


class TestEndToEnd:
    def test_report_identity(self, kleb_run):
        report = kleb_run.report
        assert report.tool == "k-leb"
        assert report.events == list(EVENTS)
        assert report.period_ns == us(100)

    def test_samples_cover_the_run(self, kleb_run):
        report = kleb_run.report
        # ~7.5 ms at 100 us -> ~75 fire slots; controller preemptions
        # cost a few.
        assert 40 <= report.sample_count <= 80

    def test_totals_are_exact(self, kleb_run):
        totals = kleb_run.report.totals
        assert totals["INST_RETIRED"] == pytest.approx(2e7, rel=1e-6)
        assert totals["LOADS"] == pytest.approx(2e7 * 0.30, rel=1e-6)

    def test_no_samples_dropped_with_default_buffer(self, kleb_run):
        assert kleb_run.report.metadata["samples_dropped"] == 0

    def test_controller_logged_all_samples(self, kleb_run):
        report = kleb_run.report
        assert report.metadata["log_bytes"] == report.sample_count * 64

    @pytest.mark.xfail(strict=True, reason=(
        "the PMU accumulates rate events as floats (rate * instructions "
        "per slice, 0.2 for BRANCHES is inexact) and reads floor them: on "
        "seed 1 the sum ends 7e-9 below 2**24 and reads one short"))
    def test_deterministic_event_is_exact_on_every_seed(self):
        """An event with an exact per-instruction rate counts exactly,
        whatever the OS noise does to the slice boundaries."""
        for seed in range(4):
            run = run_monitored(TripleLoopMatmul(256), KLebTool(),
                                events=["BRANCHES"], period_ns=us(100),
                                seed=seed)
            assert run.report.totals["BRANCHES"] == 256 ** 3, seed

    def test_samples_timestamps_within_run(self, kleb_run):
        report = kleb_run.report
        victim = kleb_run.victim
        for sample in report.samples:
            assert victim.start_time < sample.timestamp <= victim.exit_time


class TestRates:
    def test_100us_rate_accepted(self):
        assert KLebTool().effective_period(us(100)) == us(100)

    def test_floor_is_100us(self):
        """The paper's recommendation: no faster than 100 us."""
        assert KLebTool().effective_period(us(10)) == us(100)

    def test_10ms_rate_gives_fewer_samples(self):
        fast = run_monitored(UniformComputeWorkload(3e7), KLebTool(),
                             events=EVENTS, period_ns=us(100), seed=3)
        slow = run_monitored(UniformComputeWorkload(3e7), KLebTool(),
                             events=EVENTS, period_ns=ms(10), seed=3)
        assert fast.report.sample_count > 20 * max(slow.report.sample_count, 1)


class TestModuleReuse:
    def test_module_loaded_once_per_kernel(self):
        """attach() on a kernel that already has the module reuses it."""
        from repro.hw.machine import Machine
        from repro.hw.presets import i7_920
        from repro.kernel.kernel import Kernel
        from repro.sim.clock import seconds
        from repro.sim.rng import RngStreams

        kernel = Kernel(Machine(i7_920()), rng=RngStreams(0))
        tool = KLebTool()
        first = kernel.spawn(UniformComputeWorkload(1e6), start=False)
        session1 = tool.attach(kernel, first, EVENTS, ms(10))
        kernel.run_until_exit(first, deadline=seconds(5))
        session1.finalize()

        second = kernel.spawn(UniformComputeWorkload(1e6), start=False)
        session2 = tool.attach(kernel, second, EVENTS, ms(10))
        kernel.run_until_exit(second, deadline=kernel.now + seconds(5))
        report = session2.finalize()
        assert report.totals["INST_RETIRED"] == pytest.approx(1e6, rel=0.01)
        assert len(kernel.modules) == 1


class TestRegistryIntegration:
    def test_create_tool_returns_kleb(self):
        tool = create_tool("k-leb")
        assert isinstance(tool, KLebTool)
        assert not tool.requires_source
        assert tool.required_patches == ()
