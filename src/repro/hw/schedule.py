"""Counter-constraint scheduling for hardware events.

Real PMU drivers do not place events on counters by position: each
event carries a legality mask (which programmable counters can host
it) and some events are pinned to fixed-function counters.  This
module solves that placement problem the way perf's event scheduler
does, in two layers:

* :func:`assign_counters` maps one event set onto the counters of a
  single PMU "window", or raises :class:`~repro.errors.ScheduleError`
  with a diagnostic naming the exact unsatisfiable constraint (the
  Hall-condition violator: *k* events competing for fewer than *k*
  legal counters).
* :func:`plan_groups` splits an oversubscribed request into a rotation
  schedule — an ordered list of groups, each individually placeable —
  for perf-style time-multiplexing, plus the fixed-pinned events that
  count continuously and never rotate.

:func:`scaled_estimate` is the companion accounting rule: a rotated
event observed for ``time_running`` out of ``time_enabled``
nanoseconds extrapolates linearly, ``count * enabled / running`` —
exactly what ``perf stat`` reports as a percentage-scaled count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ScheduleError
from repro.hw import events as ev
from repro.hw.pmu import NUM_FIXED, NUM_PROGRAMMABLE

EventSpec = Union[str, ev.Event]


def _resolve(requested: Sequence[EventSpec]) -> List[ev.Event]:
    """Catalogue entries of ``requested``; each event at most once."""
    events = [spec if isinstance(spec, ev.Event) else ev.lookup(spec)
              for spec in requested]
    seen = set()
    for event in events:
        if event.name in seen:
            raise ScheduleError(f"event {event.name!r} requested twice")
        seen.add(event.name)
    return events


@dataclass(frozen=True)
class CounterAssignment:
    """A legal placement of one event group onto PMU counters.

    Attributes:
        fixed: (event name, fixed counter index) pairs, counter order.
        programmable: (event name, programmable counter index) pairs in
            request order; indices respect each event's counter mask.
    """

    fixed: Tuple[Tuple[str, int], ...]
    programmable: Tuple[Tuple[str, int], ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fixed + self.programmable)

    def slot_of(self, name: str) -> int:
        """Programmable counter index hosting ``name``."""
        for event_name, index in self.programmable:
            if event_name == name:
                return index
        raise KeyError(name)


def _legal_slots(event: ev.Event, num_programmable: int) -> Tuple[int, ...]:
    return tuple(index for index in range(num_programmable)
                 if event.allows_counter(index))


def _hall_violator(events: Sequence[ev.Event],
                   num_programmable: int) -> Optional[Tuple[ev.Event, ...]]:
    """Smallest event subset with fewer legal counters than members.

    By Hall's marriage theorem such a subset exists exactly when no
    assignment does, so it *is* the unsatisfiable constraint; with at
    most ``num_programmable`` events per group the subset enumeration
    is trivially small.
    """
    for size in range(1, len(events) + 1):
        for subset in combinations(events, size):
            legal = set()
            for event in subset:
                legal.update(_legal_slots(event, num_programmable))
            if len(legal) < size:
                return subset
    return None


def programmable_count(requested: Sequence[EventSpec]) -> int:
    """How many of ``requested`` need a programmable counter."""
    return sum(1 for event in _resolve(requested)
               if event.fixed_counter is None)


def assign_counters(requested: Sequence[EventSpec],
                    num_programmable: int = NUM_PROGRAMMABLE,
                    ) -> CounterAssignment:
    """Place ``requested`` onto legal counters for one PMU window.

    Fixed-pinned events go to their fixed-function counters and do not
    consume programmable slots.  The remaining events are matched to
    programmable counters by backtracking search that visits events in
    request order and counters in ascending index, so an unconstrained
    request reproduces the historical positional layout (event *i* on
    counter *i*) exactly.

    Raises:
        ScheduleError: naming the precise unsatisfiable constraint —
            either more events than counters, or the event subset whose
            combined legality mask is too small.
    """
    events = _resolve(requested)
    fixed: List[Tuple[str, int]] = []
    fixed_used: Dict[int, str] = {}
    prog_events: List[ev.Event] = []
    for event in events:
        if event.fixed_counter is not None:
            holder = fixed_used.get(event.fixed_counter)
            if holder is not None:
                raise ScheduleError(
                    f"events {holder!r} and {event.name!r} are both pinned "
                    f"to fixed counter {event.fixed_counter}")
            if not 0 <= event.fixed_counter < NUM_FIXED:
                raise ScheduleError(
                    f"event {event.name!r} pinned to nonexistent fixed "
                    f"counter {event.fixed_counter}")
            fixed_used[event.fixed_counter] = event.name
            fixed.append((event.name, event.fixed_counter))
        else:
            prog_events.append(event)
    fixed.sort(key=lambda pair: pair[1])

    if len(prog_events) > num_programmable:
        names = ", ".join(event.name for event in prog_events)
        raise ScheduleError(
            f"{len(prog_events)} events ({names}) need programmable "
            f"counters but only {num_programmable} exist; rotate them "
            f"with time-multiplexing (plan_groups / --multiplex)")

    assignment: Dict[str, int] = {}
    used = [False] * num_programmable

    def place(position: int) -> bool:
        if position == len(prog_events):
            return True
        event = prog_events[position]
        for index in _legal_slots(event, num_programmable):
            if used[index]:
                continue
            used[index] = True
            assignment[event.name] = index
            if place(position + 1):
                return True
            used[index] = False
            del assignment[event.name]
        return False

    if not place(0):
        violator = _hall_violator(prog_events, num_programmable)
        assert violator is not None  # no assignment implies a violator
        names = ", ".join(event.name for event in violator)
        masks = ", ".join(f"{event.name}={event.counter_mask:#06b}"
                          for event in violator)
        slots = sorted(set().union(*(
            _legal_slots(event, num_programmable) for event in violator)))
        raise ScheduleError(
            f"unsatisfiable counter constraint: events [{names}] allow "
            f"only counters {slots} between them ({masks}); "
            f"{len(violator)} events cannot share {len(slots)} counters")

    programmable = tuple((event.name, assignment[event.name])
                         for event in prog_events)
    return CounterAssignment(fixed=tuple(fixed), programmable=programmable)


@dataclass(frozen=True)
class GroupPlan:
    """A rotation schedule for an (possibly oversubscribed) event set.

    Attributes:
        fixed: pinned (event name, fixed counter) pairs — counted
            continuously, outside the rotation.
        groups: one :class:`CounterAssignment` per rotation window, in
            rotation order; each covers a disjoint slice of the request.
    """

    fixed: Tuple[Tuple[str, int], ...]
    groups: Tuple[CounterAssignment, ...]

    @property
    def multiplexed(self) -> bool:
        return len(self.groups) > 1

    @cached_property
    def rotated_names(self) -> Tuple[str, ...]:
        """Every rotated event, group by group (computed once)."""
        return tuple(name for group in self.groups
                     for name, _ in group.programmable)


def plan_groups(requested: Sequence[EventSpec],
                num_programmable: int = NUM_PROGRAMMABLE) -> GroupPlan:
    """Partition ``requested`` into a time-multiplexing rotation.

    Greedy first-fit in request order, like perf's group scheduler: an
    event joins the current group if the group stays placeable, else it
    opens the next one.  A single event that is unplaceable on its own
    (empty or out-of-range mask), or one requested twice, cannot be
    fixed by rotation and raises :class:`~repro.errors.ScheduleError`
    immediately.
    """
    events = _resolve(requested)
    pinned = [event for event in events if event.fixed_counter is not None]
    rotating = [event for event in events if event.fixed_counter is None]
    # Validate pinning conflicts (and get canonical fixed ordering).
    fixed = assign_counters(pinned, num_programmable).fixed

    groups: List[CounterAssignment] = []
    current: List[ev.Event] = []
    for event in rotating:
        try:
            assign_counters(current + [event], num_programmable)
        except ScheduleError:
            if not current:
                raise  # unplaceable alone: rotation cannot help
            groups.append(assign_counters(current, num_programmable))
            current = []
            assign_counters([event], num_programmable)  # placeable alone?
        current.append(event)
    if current:
        groups.append(assign_counters(current, num_programmable))
    return GroupPlan(fixed=fixed, groups=tuple(groups))


def scaled_estimate(raw: float, time_enabled_ns: int,
                    time_running_ns: int) -> float:
    """perf-style multiplexing extrapolation.

    ``raw`` counts observed while the event's group was scheduled for
    ``time_running_ns`` out of ``time_enabled_ns`` scale linearly; an
    event that never ran estimates zero, and a group that was always
    running returns the raw count exactly (no float scaling applied).
    """
    if time_running_ns <= 0:
        return 0.0
    if time_running_ns >= time_enabled_ns:
        return raw
    return raw * (time_enabled_ns / time_running_ns)
