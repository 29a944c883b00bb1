"""Hardware event catalogue.

Mirrors the structure of the Intel event tables: each event has a
select code and unit mask (the pair a tool writes into an
``IA32_PERFEVTSELx`` register), and a kind flag distinguishing
*architectural* events — stable, deterministic counts such as
instructions retired, loads, stores, branches — from
*microarchitectural* events whose counts depend on machine state
(cache misses, branch mispredictions).  The paper's Fig. 9 leans on
this distinction: cross-tool count comparison is done on architectural
events because they are reproducible across runs and processors.

The catalogue itself is data-driven: entries are built from the
committed table in :mod:`repro.hw.event_table` (likwid's
``pm_arch_events`` / rust-perfcnt descriptor style), and each carries
the counter-placement constraints the scheduler in
:mod:`repro.hw.schedule` solves against — a programmable-counter
legality bit-mask plus optional fixed-counter pinning.  Building the
catalogue validates it: duplicate names or duplicate packed
select/umask codes raise :class:`~repro.errors.PMUError` naming both
offending events rather than silently shadowing one (the failure mode
of a plain dict comprehension).
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PMUError
from repro.hw.event_table import RAW_EVENT_TABLE, Row


class EventKind(enum.Enum):
    """Stability class of a hardware event."""

    ARCHITECTURAL = "architectural"
    MICROARCHITECTURAL = "microarchitectural"


_KIND_BY_TAG = {"arch": EventKind.ARCHITECTURAL,
                "uarch": EventKind.MICROARCHITECTURAL}


@dataclass(frozen=True)
class Event:
    """A hardware event selectable on a programmable counter.

    Attributes:
        name: canonical name used throughout the package.
        select: event-select code (what goes in PERFEVTSEL bits 0-7).
        umask: unit mask (PERFEVTSEL bits 8-15).
        kind: architectural vs microarchitectural.
        description: human-readable summary.
        counter_mask: bit-mask of programmable counters the event may
            be scheduled on (bit ``i`` set = IA32_PMCi is legal).
        fixed_counter: index of the fixed-function counter the event is
            pinned to, or ``None`` for programmable-only events.
    """

    name: str
    select: int
    umask: int
    kind: EventKind
    description: str
    counter_mask: int = 0b1111
    fixed_counter: Optional[int] = None

    @property
    def code(self) -> int:
        """Packed (umask << 8) | select code as written to an MSR."""
        return (self.umask << 8) | self.select

    def allows_counter(self, index: int) -> bool:
        """Whether programmable counter ``index`` may host this event."""
        return bool(self.counter_mask & (1 << index))


def _event_from_row(row: Row) -> Event:
    name, select, umask, kind_tag, counter_mask, fixed_counter, desc = row
    try:
        kind = _KIND_BY_TAG[kind_tag]
    except KeyError:
        raise PMUError(
            f"event {name!r} has unknown kind {kind_tag!r} "
            f"(expected one of {sorted(_KIND_BY_TAG)})") from None
    return Event(name=name, select=select, umask=umask, kind=kind,
                 description=desc, counter_mask=counter_mask,
                 fixed_counter=fixed_counter)


def build_catalogue(rows: Iterable[Row]) -> Dict[str, Event]:
    """Build and validate the name -> :class:`Event` catalogue.

    Raises :class:`~repro.errors.PMUError` on a duplicate event name or
    a duplicate packed select/umask code, naming both colliding entries
    — a plain dict comprehension would let the later entry silently
    shadow the earlier one, corrupting reverse (code -> event) lookups.
    """
    catalogue: Dict[str, Event] = {}
    by_code: Dict[int, Event] = {}
    for row in rows:
        event = _event_from_row(row)
        if event.name in catalogue:
            raise PMUError(
                f"duplicate event name {event.name!r} in catalogue")
        clash = by_code.get(event.code)
        if clash is not None:
            raise PMUError(
                f"events {clash.name!r} and {event.name!r} share packed "
                f"select/umask code {event.code:#06x} "
                f"(select={event.select:#04x}, umask={event.umask:#04x})")
        catalogue[event.name] = event
        by_code[event.code] = event
    return catalogue


EVENT_CATALOGUE: Dict[str, Event] = build_catalogue(RAW_EVENT_TABLE)

# Events pinned to the three fixed-function counters, in counter order
# (IA32_FIXED_CTR0..2): instructions retired, unhalted core cycles,
# unhalted reference cycles.  Derived from the table's pinning column.
FIXED_EVENTS: Tuple[str, ...] = tuple(
    event.name
    for event in sorted(
        (e for e in EVENT_CATALOGUE.values() if e.fixed_counter is not None),
        key=lambda e: e.fixed_counter,
    )
)

_BY_CODE: Dict[int, Event] = {
    event.code: event for event in EVENT_CATALOGUE.values()
}


def suggest(name: str, limit: int = 3) -> Tuple[str, ...]:
    """Closest catalogue names to ``name``, best first (may be empty)."""
    return tuple(difflib.get_close_matches(
        name.upper(), EVENT_CATALOGUE, n=limit, cutoff=0.6))


def lookup(name: str) -> Event:
    """Return the catalogue entry for ``name`` or raise :class:`PMUError`.

    The error message carries closest-match suggestions so a typo'd
    ``--events`` request is recoverable without digging out the table.
    """
    try:
        return EVENT_CATALOGUE[name]
    except KeyError:
        hints = suggest(name)
        detail = f"unknown hardware event {name!r}"
        if hints:
            detail += " (did you mean: " + ", ".join(hints) + "?)"
        raise PMUError(detail) from None


def lookup_code(code: int) -> Event:
    """Return the event whose packed select/umask code is ``code``."""
    try:
        return _BY_CODE[code]
    except KeyError:
        raise PMUError(f"no event with select/umask code {code:#06x}") from None


def events_by_kind() -> Dict[EventKind, List[Event]]:
    """The catalogue grouped by kind, each group in table order."""
    groups: Dict[EventKind, List[Event]] = {kind: [] for kind in EventKind}
    for event in EVENT_CATALOGUE.values():
        groups[event.kind].append(event)
    return groups
