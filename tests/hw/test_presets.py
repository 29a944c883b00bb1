"""Machine presets and Machine assembly."""

import gc

import pytest

from repro.experiments import smp as smp_module
from repro.experiments.runner import run_monitored
from repro.hw.machine import Machine
from repro.hw.presets import i7_920, xeon_8259cl
from repro.tools.registry import create_tool
from repro.workloads.base import (BlockCursor, ListProgram, MemOp, RateBlock,
                                  TraceBlock)
from repro.workloads.meltdown import SecretPrinter
from repro.workloads.synthetic import PointerChaseWorkload, StridedMemoryWorkload


class TestPresets:
    def test_both_platforms_are_named(self):
        assert (i7_920().name, xeon_8259cl().name) == ("i7-920",
                                                      "xeon-8259cl")

    def test_i7_geometry(self):
        config = i7_920()
        assert config.frequency_hz == pytest.approx(2.67e9)
        names = [level.name for level in config.cache_levels]
        assert names == ["L1D", "L2", "LLC"]
        assert config.cache_levels[2].size_bytes == 8 * 1024 * 1024

    def test_xeon_differs_in_cache_structure(self):
        """The AWS platform has a different cache structure — the basis
        of the paper's cross-platform consistency check."""
        local = i7_920()
        aws = xeon_8259cl()
        assert aws.cache_levels[1].size_bytes != local.cache_levels[1].size_bytes
        assert aws.cache_levels[2].size_bytes != local.cache_levels[2].size_bytes
        assert aws.frequency_hz != local.frequency_hz


class TestMachine:
    def test_machine_wires_components(self):
        machine = Machine(i7_920())
        assert machine.core.pmu is machine.pmu
        assert machine.core.cache is machine.cache
        assert machine.pmu.msrs is machine.msrs

    def test_machine_core_frequency(self):
        machine = Machine(i7_920())
        assert machine.core.frequency_hz == pytest.approx(2.67e9)

    def test_cache_hierarchy_built_from_config(self):
        machine = Machine(xeon_8259cl())
        assert len(machine.cache.levels) == 3
        assert machine.cache.memory_latency_cycles == 220


def allocated_sets(machine):
    return sum(len(level._sets) for level in machine.cache.levels)


class TestCacheStorage:
    """A machine's cache sets exist only while a trace uses them."""

    def test_fresh_machine_holds_no_set_storage(self):
        machine = Machine(i7_920())
        assert machine.cache.cold
        assert allocated_sets(machine) == 0

    def test_rate_blocks_leave_the_cache_cold(self):
        machine = Machine(i7_920())
        program = ListProgram("rate", [RateBlock(instructions=1e5)])
        cursor = BlockCursor(program)
        while not cursor.finished:
            machine.core.execute(cursor, 1_000_000)
        assert allocated_sets(machine) == 0

    @pytest.mark.parametrize("ops", [8, 256], ids=["generic", "batch"])
    def test_trace_replay_allocates_every_level(self, ops):
        machine = Machine(i7_920())
        trace = TraceBlock(ops=tuple(MemOp(index * 64) for index in range(ops)))
        cursor = BlockCursor(ListProgram("trace", [trace]))
        machine.core.execute(cursor, 1_000_000)
        assert [len(level._sets) for level in machine.cache.levels] == [
            level.num_sets for level in i7_920().cache_levels]

    def test_run_monitored_releases_cache_storage(self):
        """With the collector off, a finished trial's graph stays alive
        (it is cyclic), so the release is what frees its sets."""
        gc.disable()
        try:
            result = run_monitored(SecretPrinter(secret="AB"),
                                   create_tool("k-leb"), period_ns=100_000)
            cache = result.kernel.machine.cache
            assert cache.stats.accesses > 0
            assert [level._sets for level in cache.levels] == [[], [], []]
        finally:
            gc.enable()

    def test_run_monitored_smp_releases_every_cache(self, monkeypatch):
        """The SMP twin: every core's hierarchy and the shared LLC end
        cold, or a finished cluster's sets pile up until a collection."""
        clusters = []

        class RecordingCluster(smp_module.SmpCluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        monkeypatch.setattr(smp_module, "SmpCluster", RecordingCluster)
        gc.disable()
        try:
            streamers = [StridedMemoryWorkload(1 << 20, 2_000,
                                               address_base=(index + 1) << 30)
                         for index in range(2)]
            run = smp_module.run_monitored_smp(
                PointerChaseWorkload(1 << 18, 5_000, seed=1), cores=3,
                migrate=True, aggressors=streamers)
            assert run.report.sample_count > 0
            (cluster,) = clusters
            caches = [kernel.machine.cache for kernel in cluster.kernels]
            assert all(cache.stats.accesses > 0 for cache in caches)
            assert all(cache.cold for cache in caches)
            assert [len(level._sets) for cache in caches
                    for level in cache.levels] == [0] * 9
            assert [llc._sets for llc in cluster.llcs] == [[]]
        finally:
            gc.enable()
