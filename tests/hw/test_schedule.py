"""Counter-constraint scheduler: assignments, groups, scaling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScheduleError
from repro.hw import events as ev
from repro.hw.pmu import NUM_PROGRAMMABLE
from repro.hw.schedule import (
    CounterAssignment,
    assign_counters,
    plan_groups,
    scaled_estimate,
)


class TestAssign:
    def test_unconstrained_events_get_positional_layout(self):
        assignment = assign_counters(
            ["LOADS", "STORES", "BRANCHES", "LLC_MISSES"])
        assert assignment.programmable == (
            ("LOADS", 0), ("STORES", 1), ("BRANCHES", 2), ("LLC_MISSES", 3))

    def test_fixed_pinned_events_do_not_consume_slots(self):
        assignment = assign_counters(
            ["INST_RETIRED", "LOADS", "STORES", "BRANCHES", "LLC_MISSES"])
        assert ("INST_RETIRED", 0) in assignment.fixed
        assert len(assignment.programmable) == 4

    def test_constrained_events_respect_masks(self):
        assignment = assign_counters(
            ["UOPS_EXEC_PORT4", "UOPS_EXEC_PORT0", "OFFCORE_RESPONSE_0"])
        for name, slot in assignment.programmable:
            assert ev.lookup(name).allows_counter(slot)

    def test_backtracking_finds_nonobvious_placement(self):
        # OFFCORE_RESPONSE_0 only fits counter 0; a greedy scheduler
        # that gives PORT0 (mask 0b0011) counter 0 first would fail.
        assignment = assign_counters(
            ["UOPS_EXEC_PORT0", "OFFCORE_RESPONSE_0"])
        assert assignment.slot_of("OFFCORE_RESPONSE_0") == 0
        assert assignment.slot_of("UOPS_EXEC_PORT0") == 1

    def test_too_many_events_suggests_multiplexing(self):
        with pytest.raises(ScheduleError, match="multiplex"):
            assign_counters(["LOADS", "STORES", "BRANCHES",
                             "LLC_MISSES", "BRANCH_MISSES"])

    def test_unsatisfiable_mask_names_the_violating_subset(self):
        # Three events whose combined legality is the two load-port
        # counters: the diagnostic must name all three and the slots.
        with pytest.raises(ScheduleError) as excinfo:
            assign_counters(["UOPS_EXEC_PORT0", "UOPS_EXEC_PORT1",
                             "OFFCORE_RESPONSE_0"])
        message = str(excinfo.value)
        for name in ("UOPS_EXEC_PORT0", "UOPS_EXEC_PORT1",
                     "OFFCORE_RESPONSE_0"):
            assert name in message
        assert "[0, 1]" in message

    def test_duplicate_request_rejected(self):
        with pytest.raises(ScheduleError, match="twice"):
            assign_counters(["LOADS", "LOADS"])

    def test_conflicting_fixed_pins_rejected(self):
        pinned_a = ev.Event("PIN_A", 0xE0, 0x01,
                            ev.EventKind.ARCHITECTURAL, "", fixed_counter=0)
        pinned_b = ev.Event("PIN_B", 0xE0, 0x02,
                            ev.EventKind.ARCHITECTURAL, "", fixed_counter=0)
        with pytest.raises(ScheduleError, match="PIN_A.*PIN_B"):
            assign_counters([pinned_a, pinned_b])


class TestGroups:
    def test_fitting_set_yields_single_group(self):
        plan = plan_groups(["LOADS", "STORES", "BRANCHES", "LLC_MISSES"])
        assert not plan.multiplexed
        assert len(plan.groups) == 1

    def test_oversubscribed_set_splits_in_request_order(self):
        events = ["LOADS", "STORES", "BRANCHES", "LLC_MISSES",
                  "BRANCH_MISSES", "ARITH_MUL"]
        plan = plan_groups(events)
        assert plan.multiplexed
        assert [name for name, _ in plan.groups[0].programmable] == events[:4]
        assert [name for name, _ in plan.groups[1].programmable] == events[4:]

    def test_pinned_events_stay_out_of_rotation(self):
        plan = plan_groups(["INST_RETIRED", "LOADS", "STORES",
                            "BRANCHES", "LLC_MISSES", "ARITH_MUL"])
        assert plan.fixed == (("INST_RETIRED", 0),)
        assert "INST_RETIRED" not in plan.rotated_names
        assert len(plan.groups) == 2

    def test_constrained_events_open_new_group_when_full(self):
        # Both offcore matchers pin to distinct single counters; five
        # PMC01-only events cannot share two counters in one group.
        plan = plan_groups(["UOPS_EXEC_PORT0", "UOPS_EXEC_PORT1",
                            "UOPS_EXEC_PORT2", "MEM_LOAD_RETIRED_L1D_HIT"])
        assert len(plan.groups) == 2
        for group in plan.groups:
            for name, slot in group.programmable:
                assert ev.lookup(name).allows_counter(slot)

    def test_duplicate_request_rejected(self):
        # Rotation cannot give one event two columns.
        with pytest.raises(ScheduleError, match="twice"):
            plan_groups(["LOADS", "STORES", "LOADS"])

    def test_rotated_names_cover_every_requested_event(self):
        events = ["LOADS", "STORES", "BRANCHES", "LLC_MISSES",
                  "BRANCH_MISSES", "L1D_MISSES", "L2_MISSES"]
        plan = plan_groups(events)
        assert sorted(plan.rotated_names) == sorted(events)


class TestScaledEstimate:
    def test_full_coverage_returns_raw_exactly(self):
        assert scaled_estimate(12345.0, 1000, 1000) == 12345.0

    def test_never_ran_estimates_zero(self):
        assert scaled_estimate(99.0, 1000, 0) == 0.0

    def test_half_coverage_doubles(self):
        assert scaled_estimate(50.0, 1000, 500) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Property tests (the ISSUE's satellite): assignments always respect
# counter masks; scaled estimates equal raw counts when the request
# fits in one group.
# ---------------------------------------------------------------------------
_PROGRAMMABLE_NAMES = sorted(
    name for name, event in ev.EVENT_CATALOGUE.items()
    if event.fixed_counter is None
)

event_sets = st.lists(st.sampled_from(_PROGRAMMABLE_NAMES),
                      min_size=1, max_size=12, unique=True)


class TestSchedulingProperties:
    @given(event_sets)
    @settings(max_examples=120, deadline=None)
    def test_assignments_always_respect_counter_masks(self, names):
        try:
            plan = plan_groups(names)
        except ScheduleError:
            # Only legitimate for an event unplaceable on its own.
            for name in names:
                assert ev.lookup(name).counter_mask & (
                    (1 << NUM_PROGRAMMABLE) - 1) != 0
            return
        seen = []
        for group in plan.groups:
            slots = [slot for _, slot in group.programmable]
            assert len(slots) == len(set(slots))  # one event per counter
            for name, slot in group.programmable:
                assert ev.lookup(name).allows_counter(slot)
            seen.extend(name for name, _ in group.programmable)
        assert sorted(seen) == sorted(names)

    @given(event_sets.filter(lambda names: len(names) <= NUM_PROGRAMMABLE),
           st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
           st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=80, deadline=None)
    def test_scaled_equals_raw_without_rotation(self, names, raw, enabled):
        try:
            plan = plan_groups(names)
        except ScheduleError:
            return
        if len(plan.groups) != 1:
            return  # masks forced a split; rotation is genuine
        # A single group runs whenever counting is enabled:
        # running == enabled, and the estimate is the raw count, with
        # no floating-point scaling applied at all.
        assert scaled_estimate(raw, enabled, enabled) == raw
