"""Property-based tests for the cache hierarchy."""

from hypothesis import given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy

LINE = 64


def small_hierarchy():
    return CacheHierarchy(
        [
            CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("LLC", 16 * LINE, ways=4, hit_latency_cycles=30),
        ],
        memory_latency_cycles=100,
    )


addresses = st.integers(min_value=0, max_value=64 * LINE)
address_lists = st.lists(addresses, min_size=1, max_size=200)


class TestCacheInvariants:
    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        for level in hierarchy.levels:
            capacity = level.config.num_sets * level.config.ways
            assert level.occupancy <= capacity

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits_l1(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
            result = hierarchy.access(address)
            assert result.hit_level == "L1D"

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_memory_misses_equals_accesses(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        total_hits = sum(hierarchy.stats.hits.values())
        memory_misses = hierarchy.stats.misses.get("memory", 0)
        assert total_hits + memory_misses == hierarchy.stats.accesses

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_llc_misses_monotone_in_trace_prefix(self, trace):
        """Replaying a prefix can never produce more misses than the
        full trace."""
        full = small_hierarchy()
        for address in trace:
            full.access(address)
        prefix = small_hierarchy()
        for address in trace[: len(trace) // 2]:
            prefix.access(address)
        assert prefix.stats.misses.get("memory", 0) <= \
            full.stats.misses.get("memory", 0)

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_fast_and_slow_paths_agree(self, trace):
        slow = small_hierarchy()
        fast = small_hierarchy()
        names = [level.config.name for level in slow.levels]
        for address in trace:
            result = slow.access(address)
            slow_index = (names.index(result.hit_level)
                          if result.hit_level else len(names))
            assert fast.access_fast(address) == slow_index

    @given(address_lists, addresses)
    @settings(max_examples=50, deadline=None)
    def test_flush_guarantees_next_access_misses(self, trace, victim):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        hierarchy.clflush(victim)
        result = hierarchy.access(victim)
        assert result.hit_level is None

    @given(address_lists)
    @settings(max_examples=30, deadline=None)
    def test_flush_all_resets_to_cold(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        hierarchy.release()
        assert hierarchy.cold
        for level in hierarchy.levels:
            assert level.occupancy == 0
