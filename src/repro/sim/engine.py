"""Event queue for the discrete-event simulation.

The queue stores callbacks keyed by absolute fire time.  The kernel run
loop peeks at the next event time to bound how long the CPU may execute
uninterrupted, then dispatches every event that has come due.

Events may be cancelled; cancellation is lazy (the entry stays in the
heap but is skipped at dispatch), which keeps both operations O(log n).
Heap entries are plain ``(when, seq, event)`` tuples — comparison stays
in C and never looks at the event, and the monotonically increasing
``seq`` preserves FIFO dispatch order for events scheduled at the same
time.  Cancelled tombstones are compacted away adaptively once they
outnumber the live entries (see :meth:`EventQueue._maybe_compact`).

The queue counts its own dispatches, cancels, compactions and peak
depth in a :class:`QueueCounts`; a queue built while an obs recorder
is installed registers those counts, and the recorder's metrics view
projects them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import hooks as _obs_hooks

EventCallback = Callable[[int], None]

# Compaction threshold: rebuilding the heap is O(n), so it only pays
# once the heap carries a meaningful number of tombstones AND they are
# the majority of entries.  Below the floor the walk-and-skip cost of
# lazy cancellation is negligible.
_COMPACT_MIN_DEAD = 64


class QueueCounts:
    """An event queue's lifetime counts, held apart from the queue so a
    recorder can keep them without keeping pending callbacks alive."""

    __slots__ = ("fired", "cancelled", "compactions", "peak")

    def __init__(self) -> None:
        self.fired = 0        # callbacks dispatched
        self.cancelled = 0    # pending events cancelled
        self.compactions = 0  # tombstone-compaction heap rebuilds
        self.peak = 0         # most live events at once


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("when", "callback", "label", "_cancelled", "_queue")

    def __init__(self, when: int, callback: EventCallback, label: str,
                 queue: Optional["EventQueue"] = None) -> None:
        self.when = when
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"ScheduledEvent({self.label!r} @ {self.when}ns, {state})"


class EventQueue:
    """Priority queue of timed callbacks.

    Ties on fire time dispatch in insertion order, which keeps the
    simulation deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._dispatching = False
        # Live (non-cancelled) entry count, maintained on schedule,
        # cancel, and dispatch so len() is O(1) — the run loop queries
        # it on every iteration.
        self._live = 0
        # Cancelled entries still sitting in the heap (tombstones).
        self._dead = 0
        self.counts = QueueCounts()
        recorder = _obs_hooks.active()
        if recorder is not None:
            recorder.queues.append(self.counts)

    def __len__(self) -> int:
        return self._live

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._dead += 1
        self.counts.cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once tombstones dominate it.

        Dropping dead entries and re-heapifying is deterministic: the
        surviving ``(when, seq)`` keys form a total order, so dispatch
        order is identical with or without the rebuild.  Skipped while
        a dispatch is walking the heap.
        """
        heap = self._heap
        if (self._dead < _COMPACT_MIN_DEAD or self._dispatching
                or self._dead * 2 <= len(heap)):
            return
        self._heap = [entry for entry in heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.counts.compactions += 1

    def schedule(self, when: int, callback: EventCallback,
                 label: str = "event") -> ScheduledEvent:
        """Register ``callback`` to fire at absolute time ``when``.

        The callback receives the scheduled fire time (which may be
        earlier than the clock if dispatch was delayed by uninterruptible
        work — analogous to interrupt latency on real hardware).
        """
        if when < 0:
            raise SimulationError(f"cannot schedule event at negative time {when}")
        event = ScheduledEvent(when, callback, label, queue=self)
        heapq.heappush(self._heap, (when, next(self._seq), event))
        self._live += 1
        counts = self.counts
        if self._live > counts.peak:
            counts.peak = self._live
        return event

    def peek_time(self) -> Optional[int]:
        """Fire time of the earliest pending event, or None when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry[0]
            heapq.heappop(heap)
            self._dead -= 1
        return None

    def dispatch_due(self, now: int) -> int:
        """Fire every pending event with ``when <= now``.

        Returns the number of callbacks invoked.  Callbacks may schedule
        further events, including ones that are already due; those are
        dispatched in the same call.
        """
        if self._dispatching:
            # A callback calling back into dispatch would reorder events.
            raise SimulationError("re-entrant event dispatch")
        self._dispatching = True
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= now:
                when, _seq, event = heappop(heap)
                if event._cancelled:
                    self._dead -= 1
                    continue
                self._live -= 1
                # Detach before firing: the entry has left the heap, so
                # a later cancel() on the handle must not touch the
                # live/tombstone counters.
                event._queue = None
                event.callback(when)
                fired += 1
        finally:
            self._dispatching = False
        # Not in ``finally``: a dispatch that raised is not counted.
        self.counts.fired += fired
        return fired

    def clear(self) -> None:
        """Drop every pending event, cancelling outstanding handles.

        Cancelling (rather than just forgetting) means holders of a
        :class:`ScheduledEvent` — e.g. an armed ``HrTimer`` — observe
        ``cancelled=True`` instead of waiting on an event that will
        never fire.
        """
        for entry in self._heap:
            entry[2].cancel()
        self._heap.clear()
        self._dead = 0
