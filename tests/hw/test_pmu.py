"""PMU semantics: programming, privilege filtering, overflow, rdpmc."""

import pytest

from repro.errors import PMUError
from repro.hw.msr import MSR, EVTSEL_EN, EVTSEL_USR
from repro.hw.pmu import (
    COUNTER_WIDTH_BITS,
    NUM_FIXED,
    NUM_PROGRAMMABLE,
    Pmu,
    RDPMC_FIXED_FLAG,
)


@pytest.fixture
def pmu():
    return Pmu()


def _arm(pmu, index=0, event="LOADS", **kwargs):
    pmu.program_counter(index, event, **kwargs)
    pmu.enable_fixed()
    pmu.global_enable()


class TestProgramming:
    def test_counter_event_reflects_programming(self, pmu):
        pmu.program_counter(0, "LLC_MISSES")
        assert pmu.counter_event(0) == "LLC_MISSES"

    def test_disabled_counter_reports_none(self, pmu):
        pmu.program_counter(1, "LOADS", enable=False)
        assert pmu.counter_event(1) is None

    def test_invalid_index_rejected(self, pmu):
        with pytest.raises(PMUError):
            pmu.program_counter(NUM_PROGRAMMABLE, "LOADS")

    def test_unknown_event_rejected(self, pmu):
        with pytest.raises(PMUError):
            pmu.program_counter(0, "BOGUS")

    def test_programming_zeroes_the_counter(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 100}, "user")
        pmu.program_counter(0, "LOADS")
        assert pmu.rdpmc(0) == 0


class TestCounting:
    def test_counts_programmed_event(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 250.0}, "user")
        assert pmu.rdpmc(0) == 250

    def test_ignores_unprogrammed_event(self, pmu):
        _arm(pmu)
        pmu.accumulate({"STORES": 99.0}, "user")
        assert pmu.rdpmc(0) == 0

    def test_fixed_counters_track_implicit_events(self, pmu):
        _arm(pmu)
        pmu.accumulate({"INST_RETIRED": 10, "CORE_CYCLES": 12,
                        "REF_CYCLES": 12}, "user")
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 0) == 10
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 1) == 12
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 2) == 12

    def test_global_disable_freezes_everything(self, pmu):
        _arm(pmu)
        pmu.global_disable()
        pmu.accumulate({"LOADS": 50, "INST_RETIRED": 50}, "user")
        assert pmu.rdpmc(0) == 0
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 0) == 0

    def test_fractional_counts_accumulate(self, pmu):
        _arm(pmu)
        for _ in range(10):
            pmu.accumulate({"LOADS": 0.25}, "user")
        assert pmu.rdpmc(0) == 2  # floor(2.5)

    def test_reset_counters_zeroes_values_only(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 7}, "user")
        pmu.reset_counters()
        assert pmu.rdpmc(0) == 0
        assert pmu.counter_event(0) == "LOADS"  # config kept

    def test_invalid_privilege_rejected(self, pmu):
        _arm(pmu)
        with pytest.raises(PMUError):
            pmu.accumulate({"LOADS": 1}, "hypervisor")


class TestPrivilegeFiltering:
    def test_user_only_counter_ignores_kernel_work(self, pmu):
        pmu.program_counter(0, "LOADS", user=True, kernel=False)
        pmu.global_enable()
        pmu.accumulate({"LOADS": 40}, "kernel")
        assert pmu.rdpmc(0) == 0

    def test_kernel_only_counter_ignores_user_work(self, pmu):
        pmu.program_counter(0, "LOADS", user=False, kernel=True)
        pmu.global_enable()
        pmu.accumulate({"LOADS": 40}, "user")
        assert pmu.rdpmc(0) == 0
        pmu.accumulate({"LOADS": 40}, "kernel")
        assert pmu.rdpmc(0) == 40

    def test_fixed_privilege_mask(self, pmu):
        pmu.enable_fixed(user=True, kernel=False)
        pmu.global_enable()
        pmu.accumulate({"INST_RETIRED": 9}, "kernel")
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 0) == 0
        pmu.accumulate({"INST_RETIRED": 9}, "user")
        assert pmu.rdpmc(RDPMC_FIXED_FLAG | 0) == 9


class TestOverflow:
    def test_counter_wraps_at_48_bits(self, pmu):
        _arm(pmu)
        wrap = 1 << COUNTER_WIDTH_BITS
        pmu.wrmsr(MSR.IA32_PMC0, wrap - 5)
        pmu.accumulate({"LOADS": 10}, "user")
        assert pmu.rdpmc(0) == 5

    def test_overflow_sets_global_status(self, pmu):
        _arm(pmu)
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")
        assert pmu.rdmsr(MSR.IA32_PERF_GLOBAL_STATUS) & 1

    def test_overflow_interrupt_delivered_when_requested(self, pmu):
        delivered = []
        pmu.set_overflow_handler(delivered.append)
        pmu.program_counter(0, "LOADS", interrupt_on_overflow=True)
        pmu.global_enable()
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")
        assert delivered == [[0]]

    def test_no_interrupt_without_int_bit(self, pmu):
        delivered = []
        pmu.set_overflow_handler(delivered.append)
        _arm(pmu)
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")
        assert delivered == []


class TestOverflowRearm:
    """A wrap-preloaded counter that is rewritten before its PMI is
    taken must not deliver the stale interrupt (the multiplexing
    rotation bug: descheduling a group rewrites its counters)."""

    def test_write_counter_cancels_pending_overflow(self, pmu):
        # No handler attached: the PMI stays pending, as when the
        # group owning the counter is descheduled before delivery.
        delivered = []
        pmu.program_counter(0, "LOADS", interrupt_on_overflow=True)
        pmu.global_enable()
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")  # wraps; PMI now pending
        pmu.write_counter(0, 0)               # re-arm before delivery
        pmu.set_overflow_handler(delivered.append)
        pmu.accumulate({"LOADS": 1}, "user")
        assert delivered == []

    def test_wrmsr_pmc_cancels_pending_overflow(self, pmu):
        delivered = []
        pmu.program_counter(0, "LOADS", interrupt_on_overflow=True)
        pmu.global_enable()
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")
        pmu.wrmsr(MSR.IA32_PMC0, 0)
        pmu.set_overflow_handler(delivered.append)
        pmu.accumulate({"LOADS": 1}, "user")
        assert delivered == []

    def test_other_counters_pending_survives_the_write(self, pmu):
        delivered = []
        pmu.program_counter(0, "LOADS", interrupt_on_overflow=True)
        pmu.program_counter(1, "STORES", interrupt_on_overflow=True)
        pmu.global_enable()
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.wrmsr(MSR.IA32_PMC1, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2, "STORES": 2}, "user")
        pmu.write_counter(0, 0)
        pmu.set_overflow_handler(delivered.append)
        pmu.accumulate({"LOADS": 1}, "user")
        assert delivered == [[1]]

    def test_read_counters_reports_a_wrap_once(self, pmu):
        _arm(pmu)
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2}, "user")
        _, values, overflow = pmu.read_counters((0,))
        assert values == [1]
        assert overflow == 1
        # The wrap is accounted exactly once.
        assert pmu.read_counters((0,))[2] == 0
        assert not pmu.rdmsr(MSR.IA32_PERF_GLOBAL_STATUS) & 1

    def test_read_counters_reports_nothing_without_a_wrap(self, pmu):
        _arm(pmu, index=0)
        _arm(pmu, index=1, event="STORES")
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2, "STORES": 3}, "user")
        _, values, overflow = pmu.read_counters((1,))
        assert values == [3]
        assert overflow == 0

    def test_read_counters_leaves_other_status_bits(self, pmu):
        _arm(pmu, index=0)
        _arm(pmu, index=1, event="STORES")
        pmu.wrmsr(MSR.IA32_PMC0, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.wrmsr(MSR.IA32_PMC1, (1 << COUNTER_WIDTH_BITS) - 1)
        pmu.accumulate({"LOADS": 2, "STORES": 2}, "user")
        assert pmu.read_counters((1,))[2] == 0b10
        # Counter 0's wrap is still latched for whoever reads it.
        assert pmu.rdmsr(MSR.IA32_PERF_GLOBAL_STATUS) & 0b11 == 0b01
        assert pmu.read_counters((0, 1))[2] == 0b01

    def test_read_counters_rejects_an_invalid_slot(self, pmu):
        with pytest.raises(PMUError):
            pmu.read_counters((NUM_PROGRAMMABLE,))


class TestDisableCounter:
    def test_disable_counter_stops_counting(self, pmu):
        _arm(pmu)
        pmu.disable_counter(0)
        pmu.accumulate({"LOADS": 10}, "user")
        assert pmu.rdpmc(0) == 0
        assert pmu.counter_event(0) is None


class TestPlanCache:
    def test_identical_programming_reuses_compiled_plan(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 1}, "user")
        assert len(pmu._plan_cache) == 1
        cached = next(iter(pmu._plan_cache.values()))
        pmu.global_disable()
        pmu.global_enable()  # same six control registers again
        pmu.accumulate({"LOADS": 1}, "user")
        assert pmu.rdpmc(0) == 2
        # The re-enable reinstalled the cached plan, not a fresh one.
        assert len(pmu._plan_cache) == 1
        assert next(iter(pmu._plan_cache.values())) is cached

    def test_cached_plan_counts_identically(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 5, "STORES": 3}, "user")
        before = pmu.rdpmc(0)
        pmu.program_counter(0, "STORES")
        pmu.program_counter(0, "LOADS")  # back to the cached signature
        pmu.accumulate({"LOADS": 5, "STORES": 3}, "user")
        assert pmu.rdpmc(0) == before  # programming zeroed, then +5

    @pytest.mark.parametrize("entry", ["accumulate", "accumulate_epoch"])
    def test_apply_list_follows_reprogramming(self, pmu, entry):
        """The apply list compiled for one event shape must land on the
        counters programmed at each delivery, across a mux-style
        rotation of counter 0 away from its event and back."""
        names = ("LOADS", "STORES", "LLC_MISSES")
        values = (5.0, 3.0, 2.0)

        def deliver():
            if entry == "accumulate":
                pmu.accumulate(dict(zip(names, values)), "user")
            else:
                pmu.accumulate_epoch(names, values, "user")

        _arm(pmu)
        pmu.program_counter(1, "LLC_MISSES")
        deliver()
        assert (pmu.rdpmc(0), pmu.rdpmc(1)) == (5, 2)
        pmu.program_counter(0, "STORES")
        deliver()
        assert (pmu.rdpmc(0), pmu.rdpmc(1)) == (3, 4)
        pmu.program_counter(0, "LOADS")  # back to the cached signature
        deliver()
        assert (pmu.rdpmc(0), pmu.rdpmc(1)) == (5, 6)
        assert len(pmu._plan_cache) == 2


class TestRdpmc:
    def test_rdpmc_reads_programmable(self, pmu):
        _arm(pmu)
        pmu.accumulate({"LOADS": 3}, "user")
        assert pmu.rdpmc(0) == 3

    def test_rdpmc_invalid_index(self, pmu):
        with pytest.raises(PMUError):
            pmu.rdpmc(NUM_PROGRAMMABLE)

    def test_rdpmc_invalid_fixed_index(self, pmu):
        with pytest.raises(PMUError):
            pmu.rdpmc(RDPMC_FIXED_FLAG | NUM_FIXED)


class TestSnapshot:
    def test_snapshot_includes_fixed_and_programmed(self, pmu):
        pmu.program_counter(0, "LLC_MISSES")
        pmu.program_counter(1, "BRANCHES")
        pmu.enable_fixed()
        pmu.global_enable()
        pmu.accumulate(
            {"LLC_MISSES": 4, "BRANCHES": 7, "INST_RETIRED": 100,
             "CORE_CYCLES": 110, "REF_CYCLES": 110},
            "user",
        )
        snap = pmu.snapshot(timestamp=1234)
        assert snap.timestamp == 1234
        assert snap.by_event["LLC_MISSES"] == 4
        assert snap.by_event["BRANCHES"] == 7
        assert snap.by_event["INST_RETIRED"] == 100

    def test_snapshot_skips_disabled_slots(self, pmu):
        pmu.program_counter(0, "LOADS")
        snap = pmu.snapshot(0)
        assert "STORES" not in snap.by_event

    def test_wrmsr_evtsel_via_raw_register(self, pmu):
        """Drivers may write event-select registers directly."""
        code = 0x00C4  # BRANCHES select, umask 0
        pmu.wrmsr(MSR.IA32_PERFEVTSEL0, code | EVTSEL_USR | EVTSEL_EN)
        assert pmu.counter_event(0) == "BRANCHES"
