"""Uncore (per-socket IMC) PMU: scheduling, wrap, EWMA bandwidth."""

import pytest

from repro.errors import PMUError, ScheduleError
from repro.hw import events as ev
from repro.hw.uncore import (CACHE_LINE_BYTES, NUM_UNCORE_COUNTERS,
                             UNCORE_EVENTS, UncorePmu)

US = 100_000  # one lockstep window, in ns


class TestProgramming:
    def test_default_catalogue_schedules_legally(self):
        pmu = UncorePmu()
        slots = {pmu.slot_of(event.name) for event in UNCORE_EVENTS}
        assert len(slots) == len(UNCORE_EVENTS)  # distinct counters
        for event in UNCORE_EVENTS:
            # assign_counters must honour the restricted masks: CAS
            # events may only land on counters 0/1.
            assert event.counter_mask & (1 << pmu.slot_of(event.name))

    def test_impossible_mask_set_raises_schedule_error(self):
        # Three events all restricted to counter 0 violate Hall's
        # condition — the constraint scheduler must say so, not
        # silently drop one.
        clones = [
            ev.Event(name=f"UNC_FAKE_{index}", select=0x50 + index,
                     umask=0x01, kind=ev.EventKind.MICROARCHITECTURAL,
                     counter_mask=0b0001, description="unschedulable")
            for index in range(3)
        ]
        pmu = UncorePmu()
        with pytest.raises(ScheduleError):
            pmu.program(clones)

    def test_too_many_events_raise(self):
        crowd = [
            ev.Event(name=f"UNC_MANY_{index}", select=0x60 + index,
                     umask=0x01, kind=ev.EventKind.MICROARCHITECTURAL,
                     description="filler")
            for index in range(NUM_UNCORE_COUNTERS + 1)
        ]
        with pytest.raises(ScheduleError):
            UncorePmu().program(crowd)

    def test_parameter_validation(self):
        with pytest.raises(PMUError):
            UncorePmu(ewma_alpha=0.0)
        with pytest.raises(PMUError):
            UncorePmu(ewma_alpha=1.5)
        with pytest.raises(PMUError):
            UncorePmu(writeback_fraction=-0.1)
        with pytest.raises(PMUError):
            UncorePmu(counter_width_bits=0)


class TestTrafficAccounting:
    def test_misses_become_cas_reads(self):
        pmu = UncorePmu(writeback_fraction=0.0)
        pmu.advance_window(US, llc_misses=100, llc_lookups=400)
        assert pmu.totals()["UNC_IMC_CAS_READS"] == 100
        assert pmu.totals()["UNC_IMC_CAS_WRITES"] == 0
        assert pmu.totals()["UNC_LLC_LOOKUPS"] == 400
        assert pmu.totals()["UNC_LLC_MISSES"] == 100

    def test_writeback_fraction_accumulates_exactly(self):
        # 0.3 of 10 reads is 3 writes per window — but carried through
        # a fractional accumulator, so 7 windows of 10 reads yield
        # exactly floor(21.0) = 21 writes, no drift.
        pmu = UncorePmu(writeback_fraction=0.3)
        for _ in range(7):
            pmu.advance_window(US, llc_misses=10, llc_lookups=10)
        assert pmu.totals()["UNC_IMC_CAS_READS"] == 70
        assert pmu.totals()["UNC_IMC_CAS_WRITES"] == 21

    def test_negative_inputs_rejected(self):
        pmu = UncorePmu()
        with pytest.raises(PMUError):
            pmu.advance_window(-1, 0, 0)
        with pytest.raises(PMUError):
            pmu.advance_window(US, -5, 0)

    def test_totals_names_every_programmed_event(self):
        pmu = UncorePmu()
        pmu.advance_window(US, llc_misses=8, llc_lookups=32)
        totals = pmu.totals()
        assert set(totals) == {event.name for event in UNCORE_EVENTS}


class TestWrapAccounting:
    def test_counter_wraps(self):
        pmu = UncorePmu(writeback_fraction=0.0, counter_width_bits=8)
        pmu.advance_window(US, llc_misses=250, llc_lookups=0)
        assert pmu.totals()["UNC_IMC_CAS_READS"] == 250
        pmu.advance_window(US, llc_misses=10, llc_lookups=0)
        # 260 mod 256.
        assert pmu.totals()["UNC_IMC_CAS_READS"] == 4

    def test_wrap_preserves_modular_count(self):
        pmu = UncorePmu(writeback_fraction=0.0, counter_width_bits=8)
        fed = 0
        for _ in range(40):
            pmu.advance_window(US, llc_misses=37, llc_lookups=0)
            fed += 37
        assert pmu.totals()["UNC_IMC_CAS_READS"] == fed % 256


class TestBandwidth:
    def test_raw_bandwidth_matches_arithmetic(self):
        pmu = UncorePmu(writeback_fraction=0.0)
        pmu.advance_window(US, llc_misses=1000, llc_lookups=1000)
        expected = 1000 * CACHE_LINE_BYTES * 1e9 / US
        # The first window seeds the EWMA with its raw bandwidth.
        assert pmu.bandwidth_bytes_per_sec == pytest.approx(expected)

    def test_first_window_seeds_the_ewma(self):
        pmu = UncorePmu(writeback_fraction=0.0)
        assert pmu.bandwidth_bytes_per_sec == 0.0
        pmu.advance_window(US, llc_misses=500, llc_lookups=500)
        assert pmu.bandwidth_bytes_per_sec == pytest.approx(
            500 * CACHE_LINE_BYTES * 1e9 / US)

    def test_ewma_converges_to_steady_state(self):
        """A step input converges geometrically: after n windows the
        smoothed value is within (1 - alpha)^n of the plateau."""
        pmu = UncorePmu(writeback_fraction=0.0, ewma_alpha=0.2)
        pmu.advance_window(US, llc_misses=0, llc_lookups=0)
        steady = 800 * CACHE_LINE_BYTES * 1e9 / US
        previous_gap = None
        for _ in range(60):
            pmu.advance_window(US, llc_misses=800, llc_lookups=800)
            gap = abs(pmu.bandwidth_bytes_per_sec - steady)
            if previous_gap is not None and previous_gap > 0:
                assert gap < previous_gap  # monotone approach
            previous_gap = gap
        assert pmu.bandwidth_bytes_per_sec == pytest.approx(steady,
                                                            rel=1e-4)

    def test_smoothing_damps_a_single_spike(self):
        pmu = UncorePmu(writeback_fraction=0.0, ewma_alpha=0.2)
        for _ in range(20):
            pmu.advance_window(US, llc_misses=100, llc_lookups=100)
        baseline = pmu.bandwidth_bytes_per_sec
        pmu.advance_window(US, llc_misses=10_000, llc_lookups=10_000)
        spike_raw = 10_000 * CACHE_LINE_BYTES * 1e9 / US
        smoothed = pmu.bandwidth_bytes_per_sec
        assert baseline < smoothed < spike_raw
        # One window moves the EWMA only alpha of the way.
        assert smoothed == pytest.approx(
            baseline + 0.2 * (spike_raw - baseline))

    def test_zero_elapsed_window_keeps_bandwidth(self):
        pmu = UncorePmu(writeback_fraction=0.0)
        pmu.advance_window(US, llc_misses=100, llc_lookups=100)
        before = pmu.bandwidth_bytes_per_sec
        pmu.advance_window(0, llc_misses=50, llc_lookups=50)
        assert pmu.bandwidth_bytes_per_sec == before
        # The counts still land even when no time passed.
        assert pmu.totals()["UNC_IMC_CAS_READS"] == 150
