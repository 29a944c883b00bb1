"""DBI profiler: exact counts, no source needed, massive overhead."""

import pytest

from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms
from repro.tools.dbi import DBI_EXPANSION_FACTOR, DbiTool
from repro.tools.null import NullTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import SecretPrinter
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES", "BRANCHES")


@pytest.fixture(scope="module")
def dbi_run():
    return run_monitored(TripleLoopMatmul(400), DbiTool(), events=EVENTS,
                         period_ns=ms(10), seed=0)


class TestCorrectness:
    def test_counts_are_exact_ground_truth(self, dbi_run):
        program = TripleLoopMatmul(400)
        assert dbi_run.report.totals["INST_RETIRED"] == pytest.approx(
            program.instructions
        )
        assert dbi_run.report.totals["LOADS"] == pytest.approx(
            program.instructions * 0.4
        )

    def test_attach_requires_translated_program(self, kernel):
        task = kernel.spawn(TripleLoopMatmul(64), start=False)
        with pytest.raises(ToolError):
            DbiTool().attach(kernel, task, EVENTS, ms(10))

    def test_registered(self):
        assert isinstance(create_tool("dbi"), DbiTool)

    def test_rows_hold_requested_events_plus_instructions(self):
        """Samples carry the same events as the totals, not every event
        the instrumentation happens to count."""
        report = run_monitored(TripleLoopMatmul(320), DbiTool(),
                               events=("LOADS", "STORES"),
                               period_ns=ms(10), seed=0).report
        assert len(report.samples) >= 2
        for sample in report.samples:
            assert set(sample.values) == {"LOADS", "STORES", "INST_RETIRED"}


class TestOverhead:
    def test_overhead_is_severe(self, dbi_run):
        """The paper's intro: DBI's overhead is what makes online
        fine-grained profiling 'sub-optimal'."""
        baseline = run_monitored(TripleLoopMatmul(400), NullTool(), seed=0)
        slowdown = dbi_run.wall_ns / baseline.wall_ns
        assert slowdown > 5.0

    def test_slowdown_tracks_expansion_factor(self, dbi_run):
        baseline = run_monitored(TripleLoopMatmul(400), NullTool(), seed=0)
        slowdown = dbi_run.wall_ns / baseline.wall_ns
        assert slowdown == pytest.approx(DBI_EXPANSION_FACTOR, rel=0.25)

    def test_dwarfs_every_counter_tool(self):
        program = UniformComputeWorkload(2e8)
        baseline = run_monitored(program, NullTool(), seed=1)
        dbi = run_monitored(program, DbiTool(), events=EVENTS,
                            period_ns=ms(10), seed=1)
        kleb = run_monitored(program, create_tool("k-leb"), events=EVENTS,
                             period_ns=ms(10), seed=1)
        dbi_overhead = dbi.wall_ns - baseline.wall_ns
        kleb_overhead = kleb.wall_ns - baseline.wall_ns
        assert dbi_overhead > 100 * kleb_overhead


class TestTraceWorkloads:
    def test_cache_behaviour_preserved_under_translation(self):
        """DBI slows the program but must not change what it does to
        the cache: the Meltdown victim's MPKI class survives."""
        clean = run_monitored(SecretPrinter(secret="ABCDEF"), NullTool(),
                              seed=0)
        translated = run_monitored(SecretPrinter(secret="ABCDEF"), DbiTool(),
                                   events=("LLC_MISSES",), period_ns=ms(10),
                                   seed=0)
        cache = translated.kernel.machine.cache
        clean_cache = clean.kernel.machine.cache
        assert cache.stats.misses.get("memory", 0) == \
            clean_cache.stats.misses.get("memory", 0)
