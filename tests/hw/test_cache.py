"""Cache hierarchy: geometry validation, LRU, fills, flush, events."""

import pytest

from repro.errors import CacheConfigError
from repro.hw.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.workloads.base import BlockCursor, ListProgram, MemOp, TraceBlock

LINE = 64


def standard_hierarchy():
    """The i7-920's three levels: 32 KiB L1D, 256 KiB L2, 8 MiB LLC."""
    config = i7_920()
    return CacheHierarchy(config.cache_levels,
                          memory_latency_cycles=config.memory_latency_cycles)


def tiny_hierarchy():
    """Two-level hierarchy small enough to force evictions in tests."""
    return CacheHierarchy(
        [
            CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("LLC", 16 * LINE, ways=4, hit_latency_cycles=30),
        ],
        memory_latency_cycles=100,
    )


class TestConfigValidation:
    def test_valid_config(self):
        config = CacheConfig("L1D", 32 * 1024, ways=8)
        assert config.num_sets == 64

    def test_zero_ways_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheConfig("bad", 1024, ways=0)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheConfig("bad", 1024, ways=2, line_bytes=48)

    def test_size_not_divisible_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheConfig("bad", 1000, ways=3)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheConfig("bad", 3 * 64 * 2, ways=2)

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(CacheConfigError):
            CacheHierarchy([])


class TestLevelLru:
    def test_miss_then_hit(self):
        level = CacheLevel(CacheConfig("L1D", 4 * LINE, ways=2))
        assert not level.lookup(0)
        level.fill(0)
        assert level.lookup(0)

    def test_lru_eviction_order(self):
        # 2 sets x 2 ways; addresses 0 and 2*LINE map to set 0.
        level = CacheLevel(CacheConfig("L1D", 4 * LINE, ways=2))
        level.fill(0 * LINE)
        level.fill(2 * LINE)
        level.fill(4 * LINE)  # evicts LRU (address 0)
        assert not level.contains(0 * LINE)
        assert level.contains(2 * LINE)
        assert level.contains(4 * LINE)

    def test_hit_refreshes_lru(self):
        level = CacheLevel(CacheConfig("L1D", 4 * LINE, ways=2))
        level.fill(0 * LINE)
        level.fill(2 * LINE)
        level.lookup(0 * LINE)      # 0 becomes MRU
        level.fill(4 * LINE)        # evicts 2*LINE now
        assert level.contains(0 * LINE)
        assert not level.contains(2 * LINE)

    def test_same_line_addresses_share_entry(self):
        level = CacheLevel(CacheConfig("L1D", 4 * LINE, ways=2))
        level.fill(0)
        assert level.contains(63)   # same 64-byte line
        assert not level.contains(64)

    def test_occupancy(self):
        level = CacheLevel(CacheConfig("L1D", 4 * LINE, ways=2))
        assert level.occupancy == 0
        level.fill(0)
        level.fill(LINE)
        assert level.occupancy == 2
        level.release()
        assert level.occupancy == 0


class TestHierarchyAccess:
    def test_cold_miss_goes_to_memory(self):
        hierarchy = tiny_hierarchy()
        result = hierarchy.access(0)
        assert result.hit_level is None
        assert result.latency_cycles == 100
        assert result.events["LLC_MISSES"] == 1.0
        assert result.events["LLC_REFERENCES"] == 1.0

    def test_second_access_hits_l1(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        result = hierarchy.access(0)
        assert result.hit_level == "L1D"
        assert result.latency_cycles == 4
        assert "LLC_REFERENCES" not in result.events

    def test_l1_evicted_line_hits_llc(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        # Push 0 out of the 2-way L1 set (stride = L1 set span).
        hierarchy.access(2 * LINE)
        hierarchy.access(4 * LINE)
        result = hierarchy.access(0)
        assert result.hit_level == "LLC"
        assert result.events["LLC_REFERENCES"] == 1.0
        assert "LLC_MISSES" not in result.events

    def test_store_event(self):
        hierarchy = tiny_hierarchy()
        result = hierarchy.access(0, is_write=True)
        assert result.events["STORES"] == 1.0
        assert "LOADS" not in result.events

    def test_l1_miss_event_recorded(self):
        hierarchy = tiny_hierarchy()
        result = hierarchy.access(0)
        assert result.events["L1D_MISSES"] == 1.0

    def test_stats_accumulate(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        hierarchy.access(0)
        assert hierarchy.stats.accesses == 2
        assert hierarchy.stats.hits["L1D"] == 1
        assert hierarchy.stats.misses["memory"] == 1


class TestClflush:
    def test_flush_removes_from_all_levels(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        assert hierarchy.contains(0) == "L1D"
        hierarchy.clflush(0)
        assert hierarchy.contains(0) is None

    def test_flush_then_access_misses(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        hierarchy.clflush(0)
        result = hierarchy.access(0)
        assert result.hit_level is None

    def test_flush_counts(self):
        hierarchy = tiny_hierarchy()
        hierarchy.clflush(0)
        assert hierarchy.stats.flushes == 1


class TestAccessFast:
    def test_fast_path_matches_slow_path_levels(self):
        slow = tiny_hierarchy()
        fast = tiny_hierarchy()
        addresses = [0, LINE, 2 * LINE, 0, 4 * LINE, 0, 8 * LINE, LINE]
        for address in addresses:
            slow_result = slow.access(address)
            fast_index = fast.access_fast(address)
            slow_index = (
                [level.config.name for level in slow.levels].index(
                    slow_result.hit_level
                )
                if slow_result.hit_level is not None
                else len(slow.levels)
            )
            assert fast_index == slow_index, f"diverged at {address:#x}"

    def test_fast_path_matches_slow_path_stats(self):
        slow = tiny_hierarchy()
        fast = tiny_hierarchy()
        addresses = [i * LINE for i in range(40)] + [0, LINE, 5 * LINE]
        for address in addresses:
            slow.access(address)
            fast.access_fast(address)
        assert slow.stats.hits == fast.stats.hits
        assert slow.stats.misses == fast.stats.misses
        assert slow.stats.accesses == fast.stats.accesses


class TestStandardHierarchy:
    def test_three_levels(self):
        hierarchy = standard_hierarchy()
        assert [level.config.name for level in hierarchy.levels] == [
            "L1D", "L2", "LLC",
        ]

    def test_llc_property(self):
        hierarchy = standard_hierarchy()
        assert hierarchy.llc.config.name == "LLC"

    def test_flush_all(self):
        hierarchy = standard_hierarchy()
        hierarchy.access(0)
        hierarchy.release()
        assert hierarchy.contains(0) is None


def allocated(hierarchy):
    """Set count each level holds (0 while the level is cold)."""
    return [len(level._sets) for level in hierarchy.levels]


class TestFirstTouch:
    """Set storage is allocated when a hierarchy is first touched."""

    def test_fresh_hierarchy_holds_no_sets(self):
        hierarchy = standard_hierarchy()
        assert hierarchy.cold
        assert allocated(hierarchy) == [0, 0, 0]

    @pytest.mark.parametrize("touch", [
        lambda cache: cache.access(0x40),
        lambda cache: cache.access(0x40, is_write=True),
        lambda cache: cache.access_fast(0x40),
        lambda cache: cache.clflush(0x40),
    ], ids=["access", "store", "access_fast", "clflush"])
    def test_touch_allocates_every_level(self, touch):
        hierarchy = standard_hierarchy()
        touch(hierarchy)
        assert not hierarchy.cold
        assert allocated(hierarchy) == [
            level.config.num_sets for level in hierarchy.levels]

    def test_level_lookup_and_fill_allocate_that_level(self):
        for touch in (lambda level: level.lookup(0x40),
                      lambda level: level.fill(0x40)):
            level = CacheLevel(CacheConfig("L", 8 * LINE, ways=2))
            touch(level)
            assert len(level._sets) == 4

    def test_cold_level_answers_empty_without_allocating(self):
        level = CacheLevel(CacheConfig("L", 8 * LINE, ways=2))
        assert not level.contains(0x40)
        assert level.occupancy == 0
        assert level._sets == []

    def test_cold_hierarchy_answers_empty_without_allocating(self):
        hierarchy = standard_hierarchy()
        assert hierarchy.contains(0x40) is None
        assert hierarchy.cold
        assert allocated(hierarchy) == [0, 0, 0]

    def test_release_keeps_stats_and_frees_sets(self):
        hierarchy = tiny_hierarchy()
        for address in (0, LINE, 0, 8 * LINE):
            hierarchy.access(address)
        hierarchy.clflush(LINE)
        stats = (hierarchy.stats.accesses, dict(hierarchy.stats.hits),
                 dict(hierarchy.stats.misses), hierarchy.stats.flushes)
        counts = [(level.hits, level.misses) for level in hierarchy.levels]
        hierarchy.release()
        assert hierarchy.cold
        assert allocated(hierarchy) == [0, 0]
        assert (hierarchy.stats.accesses, hierarchy.stats.hits,
                hierarchy.stats.misses, hierarchy.stats.flushes) == stats
        assert [(level.hits, level.misses)
                for level in hierarchy.levels] == counts
        # A later touch starts again from an empty cache.
        assert hierarchy.access(0).hit_level is None
        assert allocated(hierarchy) == [2, 4]

    @pytest.mark.parametrize("touch", [
        lambda cache: cache.access(0x3000),
        lambda cache: cache.access_fast(0x3000),
        lambda cache: cache.clflush(0x3000),
    ], ids=["access", "access_fast", "clflush"])
    def test_shared_llc_release_turns_every_holder_cold(self, touch):
        """Releasing one hierarchy empties the LLC it shares; another
        hierarchy on that LLC must see itself cold, not index an empty
        set list."""
        first = standard_hierarchy()
        config = i7_920()
        second = CacheHierarchy(
            config.cache_levels[:-1],
            memory_latency_cycles=config.memory_latency_cycles,
            shared_llc=first.llc)
        first.access(0x1000)
        second.access(0x2000)
        first.release()
        assert second.cold
        touch(second)
        assert not second.cold
        assert first.cold  # its private levels stay released
        assert second.contains(0x2000) == "L1D"

    def test_shared_llc_release_before_batch_replay(self):
        """The same for a batch-replayed trace on a core whose LLC
        another core's hierarchy released."""
        shared = Machine(i7_920()).cache.llc
        machines = [Machine(i7_920(), shared_llc=shared) for _ in range(2)]
        for machine in machines:
            machine.cache.access(0x1000)
        machines[0].cache.release()
        trace = TraceBlock(ops=tuple(MemOp(0x4000_0000 + index * LINE)
                                     for index in range(256)))
        cursor = BlockCursor(ListProgram("trace", [trace]))
        machines[1].core.execute(cursor, 1_000_000_000)
        assert cursor.finished
        assert machines[1].cache.stats.misses["memory"] == 256


class TestVersion:
    """``CacheLevel.version`` moves on every path that can change a
    level's sets or their LRU order, and on no read-only one."""

    def versions(self, hierarchy):
        return [level.version for level in hierarchy.levels]

    def test_level_paths(self):
        level = CacheLevel(CacheConfig("L", 8 * LINE, ways=2))
        for touch, moves in (
                (lambda: level.lookup(0x40), False),     # miss
                (lambda: level.fill(0x40), True),
                (lambda: level.lookup(0x40), True),      # hit: LRU order
                (lambda: level.contains(0x40), False),
                (lambda: level.occupancy, False),
                (lambda: level.release(), True)):
            before = level.version
            touch()
            assert (level.version != before) == moves

    def test_hierarchy_paths(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        for touch, moved in (
                (lambda: hierarchy.access(0), [True, False]),    # L1 hit
                (lambda: hierarchy.access(LINE), [True, True]),  # miss
                (lambda: hierarchy.access_fast(0), [True, False]),
                (lambda: hierarchy.access_fast(8 * LINE), [True, True]),
                (lambda: hierarchy.contains(0), [False, False]),
                (lambda: hierarchy.clflush(0), [True, True]),
                (lambda: hierarchy.release(), [True, True])):
            before = self.versions(hierarchy)
            touch()
            assert [after != was for after, was in zip(
                self.versions(hierarchy), before)] == moved

    def test_release_clears_the_chain_record(self):
        hierarchy = tiny_hierarchy()
        hierarchy.chain = (None, 64, 0, 1, 1, 1)
        hierarchy.release()
        assert hierarchy.chain is None
