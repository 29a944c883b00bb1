"""Event catalogue integrity."""

import pytest

from repro.errors import PMUError
from repro.hw import events as ev


class TestCatalogue:
    def test_fixed_events_present(self):
        for name in ev.FIXED_EVENTS:
            assert name in ev.EVENT_CATALOGUE

    def test_fixed_event_order(self):
        # IA32_FIXED_CTR0..2: instructions, core cycles, ref cycles.
        assert ev.FIXED_EVENTS == ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES")

    def test_codes_are_unique(self):
        codes = [event.code for event in ev.EVENT_CATALOGUE.values()]
        assert len(codes) == len(set(codes))

    def test_code_packs_umask_and_select(self):
        event = ev.lookup("LLC_MISSES")
        assert event.code == (event.umask << 8) | event.select

    def test_lookup_unknown_raises(self):
        with pytest.raises(PMUError):
            ev.lookup("NOT_AN_EVENT")

    def test_lookup_code_roundtrip(self):
        for event in ev.EVENT_CATALOGUE.values():
            assert ev.lookup_code(event.code) is event

    def test_lookup_code_unknown_raises(self):
        with pytest.raises(PMUError):
            ev.lookup_code(0xDEAD)


class TestCatalogueScale:
    def test_catalogue_has_at_least_100_events(self):
        assert len(ev.EVENT_CATALOGUE) >= 100

    def test_every_event_has_a_description(self):
        for event in ev.EVENT_CATALOGUE.values():
            assert event.description

    def test_counter_masks_are_nonzero_and_in_range(self):
        from repro.hw.pmu import NUM_PROGRAMMABLE

        full = (1 << NUM_PROGRAMMABLE) - 1
        for event in ev.EVENT_CATALOGUE.values():
            assert 0 < event.counter_mask <= full, event.name

    def test_legacy_events_stay_unconstrained(self):
        # The pre-catalogue events must keep mask 0b1111 so the
        # scheduler reproduces the historical positional layout
        # (golden digests depend on the resulting MSR writes).
        for name in ("LOADS", "STORES", "BRANCHES", "BRANCH_MISSES",
                     "LLC_REFERENCES", "LLC_MISSES", "ARITH_MUL", "FP_OPS"):
            assert ev.EVENT_CATALOGUE[name].counter_mask == 0b1111

    def test_fixed_pinning_matches_intel_layout(self):
        assert ev.EVENT_CATALOGUE["INST_RETIRED"].fixed_counter == 0
        assert ev.EVENT_CATALOGUE["CORE_CYCLES"].fixed_counter == 1
        assert ev.EVENT_CATALOGUE["REF_CYCLES"].fixed_counter == 2

    def test_allows_counter(self):
        event = ev.EVENT_CATALOGUE["OFFCORE_RESPONSE_0"]
        assert event.allows_counter(0)
        assert not event.allows_counter(1)


class TestBuildCatalogue:
    _ROW_A = ("EVT_A", 0xD0, 0x01, "uarch", 0b1111, None, "first")

    def test_duplicate_name_raises(self):
        rows = (self._ROW_A,
                ("EVT_A", 0xD1, 0x01, "uarch", 0b1111, None, "second"))
        with pytest.raises(PMUError, match="duplicate event name 'EVT_A'"):
            ev.build_catalogue(rows)

    def test_duplicate_code_names_both_events(self):
        rows = (self._ROW_A,
                ("EVT_B", 0xD0, 0x01, "uarch", 0b1111, None, "same code"))
        with pytest.raises(PMUError) as excinfo:
            ev.build_catalogue(rows)
        message = str(excinfo.value)
        assert "'EVT_A'" in message
        assert "'EVT_B'" in message
        assert "0x01d0" in message


class TestSuggestions:
    def test_lookup_suggests_close_match(self):
        with pytest.raises(PMUError, match="did you mean.*LLC_MISSES"):
            ev.lookup("LLC_MISES")

    def test_lowercase_name_gets_uppercase_suggestion(self):
        with pytest.raises(PMUError, match="did you mean.*LLC_MISSES"):
            ev.lookup("llc_misses")

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(PMUError) as excinfo:
            ev.lookup("ZZZZQQQQ")
        assert "did you mean" not in str(excinfo.value)

    def test_suggest_returns_ranked_candidates(self):
        names = ev.suggest("BRANCH_MISES")
        assert names
        assert "BRANCH_MISSES" in names


class TestKinds:
    def test_architectural_events_are_deterministic_set(self):
        for name in ("LOADS", "STORES", "BRANCHES", "INST_RETIRED"):
            assert ev.EVENT_CATALOGUE[name].kind is ev.EventKind.ARCHITECTURAL

    def test_cache_events_are_microarchitectural(self):
        for name in ("LLC_MISSES", "LLC_REFERENCES", "BRANCH_MISSES"):
            assert ev.EVENT_CATALOGUE[name].kind is ev.EventKind.MICROARCHITECTURAL

    def test_architectural_excludes_cache_misses(self):
        assert (ev.EVENT_CATALOGUE["LLC_MISSES"].kind
                is not ev.EventKind.ARCHITECTURAL)
