"""PAPI and LiMiT: instrumentation, gates, compatibility."""

import pytest

from repro.errors import ToolError, ToolUnsupportedError
from repro.experiments.runner import run_monitored
from repro.kernel.kernel import Kernel
from repro.sim.clock import ms
from repro.sim.rng import RngStreams
from repro.tools.limit import LIMIT_PATCH, LimitTool
from repro.tools.papi import PapiTool
from repro.tools.readpoint import instrumentation_interval
from repro.workloads.base import RateBlock
from repro.workloads.dgemm import MklDgemm
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES", "BRANCHES")


def _run(tool):
    return run_monitored(
        TripleLoopMatmul(300), tool, events=EVENTS,
        period_ns=ms(10), seed=7,
    )


@pytest.fixture(scope="module")
def papi_run():
    return _run(PapiTool())


@pytest.fixture(scope="module")
def limit_run():
    return _run(LimitTool())


@pytest.fixture(scope="module", params=["papi", "limit"])
def tool_run(request):
    return request.getfixturevalue(f"{request.param}_run")


READ_POINT_TOOLS = pytest.mark.parametrize(
    "tool, label", [(PapiTool, "PAPI"), (LimitTool, "LiMiT")],
    ids=["papi", "limit"],
)


class TestInstrumentationInterval:
    def test_interval_targets_sample_rate(self):
        program = TripleLoopMatmul(1024)
        interval = instrumentation_interval(program, ms(10), 2.67e9)
        expected_points = program.instructions / 2.67e9 / 0.010
        assert program.instructions / interval == pytest.approx(
            expected_points, rel=0.01
        )

    def test_program_without_metadata_rejected(self):
        from repro.workloads.base import ListProgram

        bare = ListProgram("no-metadata", [RateBlock(instructions=1e6)])
        with pytest.raises(ToolError):
            instrumentation_interval(bare, ms(10), 2.67e9)

    def test_cpi_hint_shortens_estimated_runtime(self):
        fast = instrumentation_interval(MklDgemm(512), ms(10), 2.67e9)
        # Lower CPI -> shorter runtime -> fewer points -> bigger interval.
        slow_program = TripleLoopMatmul(512)
        slow = instrumentation_interval(slow_program, ms(10), 2.67e9)
        assert fast / MklDgemm(512).instructions > \
            slow / slow_program.instructions


class TestReadPoints:
    """What PAPI and LiMiT share: the read-point path."""

    @READ_POINT_TOOLS
    def test_attach_requires_prepared_program(self, kernel, tool, label):
        task = kernel.spawn(TripleLoopMatmul(64), start=False)
        with pytest.raises(ToolError, match=f"{label} requires the source"):
            tool().attach(kernel, task, EVENTS, ms(10))

    @READ_POINT_TOOLS
    def test_program_prepared_by_the_other_tool_rejected(
            self, machine, quiet_config, tool, label):
        """Each tool attaches only to its own read points, even on a
        kernel both could run on."""
        other = LimitTool if tool is PapiTool else PapiTool
        kernel = Kernel(machine, config=quiet_config, rng=RngStreams(0),
                        patches=[LIMIT_PATCH])
        program = other().prepare_program(TripleLoopMatmul(64),
                                          EVENTS, ms(10))
        task = kernel.spawn(program, start=False)
        with pytest.raises(ToolError, match=f"{label} requires the source"):
            tool().attach(kernel, task, EVENTS, ms(10))

    def test_samples_recorded_at_points(self, tool_run):
        assert tool_run.report.sample_count == \
            tool_run.report.metadata["read_points"]

    def test_setup_not_counted(self, tool_run):
        """Counting starts after the prologue's setup work (PAPI's
        library init, LiMiT's setup), so none of it is in the totals."""
        runtime = tool_run.victim.program.runtime
        setup = sum(block.instructions
                    for block in runtime.tool.prologue(runtime)
                    if isinstance(block, RateBlock))
        measured = tool_run.report.totals["INST_RETIRED"]
        assert setup > 1e6
        assert measured < TripleLoopMatmul(300).instructions + setup * 0.1


class TestPapi:
    def test_requires_source_flag(self):
        assert PapiTool().requires_source

    def test_read_points_approximate_timer_samples(self, papi_run):
        # ~50 ms program at 10 ms -> ~5 points ("approximately the
        # same" as the paper puts it).
        points = papi_run.report.metadata["read_points"]
        assert 3 <= points <= 8

    def test_totals_close_to_truth(self, papi_run):
        program = TripleLoopMatmul(300)
        truth = program.instructions
        measured = papi_run.report.totals["INST_RETIRED"]
        # PAPI counts its own bookkeeping: small positive deviation.
        assert measured >= truth
        assert measured < truth * 1.01

    def test_one_read_syscall_per_point(self, papi_run):
        """PAPI's defining cost: every read point enters the kernel
        once to read the counters and once to log the sample."""
        kernel = papi_run.kernel
        points = papi_run.report.metadata["read_points"]
        assert kernel.syscall_counts["read"] == points
        assert kernel.syscall_counts["write"] == points


class TestLimit:
    def test_requires_patch_and_old_kernel(self):
        tool = LimitTool()
        assert tool.requires_source
        assert tool.required_patches == ("limit",)
        assert tool.kernel_version == "2.6.32"

    def test_runs_on_patched_kernel(self, limit_run):
        assert limit_run.report.tool == "limit"
        truth = TripleLoopMatmul(300).instructions
        assert limit_run.report.totals["INST_RETIRED"] == pytest.approx(
            truth, rel=0.01
        )

    def test_unpatched_kernel_rejected(self, kernel):
        # The fixture kernel has no patches applied.
        program = LimitTool().prepare_program(TripleLoopMatmul(64),
                                              EVENTS, ms(10))
        with pytest.raises(ToolUnsupportedError):
            LimitTool().check_compatible(kernel, program)

    def test_mkl_on_limit_kernel_rejected(self):
        """Table III's n/a: Intel MKL needs a newer kernel than the
        LiMiT patch supports."""
        with pytest.raises(ToolUnsupportedError):
            run_monitored(MklDgemm(256), LimitTool(), events=EVENTS,
                          period_ns=ms(10), seed=0)

    def test_no_syscalls_for_reads(self, limit_run):
        """LiMiT's defining property: counter reads avoid the kernel.
        Its only syscalls are the per-point log writes."""
        kernel = limit_run.kernel
        points = limit_run.report.metadata["read_points"]
        assert kernel.syscall_counts["write"] == points
        assert kernel.syscall_counts["read"] == 0

    def test_cheaper_than_papi(self):
        base = run_monitored(TripleLoopMatmul(300), _null(),
                             events=EVENTS, seed=8)
        papi = run_monitored(TripleLoopMatmul(300), PapiTool(),
                             events=EVENTS, period_ns=ms(10), seed=8)
        limit = run_monitored(TripleLoopMatmul(300), LimitTool(),
                              events=EVENTS, period_ns=ms(10), seed=8)
        assert limit.wall_ns - base.wall_ns < papi.wall_ns - base.wall_ns


def _null():
    from repro.tools.null import NullTool

    return NullTool()
