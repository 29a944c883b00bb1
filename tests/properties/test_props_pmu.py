"""Property-based tests for PMU counting semantics."""

from hypothesis import given, settings, strategies as st

from repro.hw.msr import MSR
from repro.hw.pmu import (COUNTER_WIDTH_BITS, NUM_FIXED, NUM_PROGRAMMABLE,
                          Pmu, RDPMC_FIXED_FLAG)


def armed_pmu():
    pmu = Pmu()
    pmu.program_counter(0, "LOADS")
    pmu.program_counter(1, "STORES")
    pmu.enable_fixed()
    pmu.global_enable()
    return pmu


increments = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=50,
)


class TestCountingProperties:
    @given(increments)
    @settings(max_examples=60, deadline=None)
    def test_counter_equals_sum_of_increments(self, steps):
        pmu = armed_pmu()
        total_loads = 0.0
        total_stores = 0.0
        for loads, stores in steps:
            pmu.accumulate({"LOADS": loads, "STORES": stores}, "user")
            total_loads += loads
            total_stores += stores
        assert pmu.rdpmc(0) == int(total_loads % (1 << COUNTER_WIDTH_BITS))
        assert pmu.rdpmc(1) == int(total_stores % (1 << COUNTER_WIDTH_BITS))

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_counters_are_independent(self, steps):
        pmu = armed_pmu()
        for loads, _ in steps:
            pmu.accumulate({"LOADS": loads}, "user")
        assert pmu.rdpmc(1) == 0

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_counts_are_monotone_without_wrap(self, steps):
        pmu = armed_pmu()
        previous = 0
        for loads, stores in steps:
            pmu.accumulate({"LOADS": loads, "STORES": stores}, "user")
            current = pmu.rdpmc(0)
            assert current >= previous
            previous = current

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_privilege_split_partitions_counts(self, steps):
        """user-only + kernel-only counters together equal a dual-mode
        counter: counts are partitioned by ring, never duplicated."""
        dual = Pmu()
        dual.program_counter(0, "LOADS", user=True, kernel=True)
        dual.global_enable()
        split = Pmu()
        split.program_counter(0, "LOADS", user=True, kernel=False)
        split.program_counter(1, "LOADS", user=False, kernel=True)
        split.global_enable()
        for index, (user_loads, kernel_loads) in enumerate(steps):
            dual.accumulate({"LOADS": user_loads}, "user")
            dual.accumulate({"LOADS": kernel_loads}, "kernel")
            split.accumulate({"LOADS": user_loads}, "user")
            split.accumulate({"LOADS": kernel_loads}, "kernel")
        # Compare the underlying accumulators via snapshots (integer
        # floors of the two splits may differ by at most 1 from the
        # dual counter's floor).
        assert abs((split.rdpmc(0) + split.rdpmc(1)) - dual.rdpmc(0)) <= 1

    @given(st.floats(min_value=0, max_value=float(1 << 50),
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_wraparound_stays_in_range(self, amount):
        pmu = armed_pmu()
        pmu.accumulate({"LOADS": amount}, "user")
        assert 0 <= pmu.rdpmc(0) < (1 << COUNTER_WIDTH_BITS)


counter_values = st.integers(min_value=0,
                             max_value=(1 << COUNTER_WIDTH_BITS) - 1)


class TestReadCountersProperties:
    @given(fixed=st.lists(counter_values, min_size=NUM_FIXED,
                          max_size=NUM_FIXED),
           programmable=st.lists(counter_values, min_size=NUM_PROGRAMMABLE,
                                 max_size=NUM_PROGRAMMABLE),
           status=st.integers(min_value=0, max_value=(1 << 64) - 1),
           slots=st.lists(st.integers(0, NUM_PROGRAMMABLE - 1), unique=True,
                          max_size=NUM_PROGRAMMABLE).map(tuple))
    @settings(max_examples=100, deadline=None)
    def test_one_read_equals_per_slot_reads(self, fixed, programmable,
                                            status, slots):
        """One ``read_counters`` call returns what ``rdpmc`` per counter
        and ``IA32_PERF_GLOBAL_STATUS`` return, then clears
        exactly the returned status bits."""
        pmu = Pmu()
        for address, value in zip((MSR.IA32_FIXED_CTR0, MSR.IA32_FIXED_CTR1,
                                   MSR.IA32_FIXED_CTR2), fixed):
            pmu.wrmsr(address, value)
        for index, value in enumerate(programmable):
            pmu.write_counter(index, value)
        pmu.wrmsr(MSR.IA32_PERF_GLOBAL_STATUS, status)
        mask = sum(1 << slot for slot in slots)

        got_fixed, values, overflow = pmu.read_counters(slots)

        assert got_fixed == [pmu.rdpmc(RDPMC_FIXED_FLAG | index)
                             for index in range(NUM_FIXED)]
        assert values == [pmu.rdpmc(slot) for slot in slots]
        assert overflow == status & mask
        assert pmu.msrs.read(MSR.IA32_PERF_GLOBAL_STATUS) == status & ~mask
