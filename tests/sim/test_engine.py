"""Event queue: ordering, cancellation, dispatch semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventQueue


@pytest.fixture
def queue():
    return EventQueue()


class TestScheduling:
    def test_peek_empty(self, queue):
        assert queue.peek_time() is None

    def test_peek_returns_earliest(self, queue):
        queue.schedule(300, lambda when: None)
        queue.schedule(100, lambda when: None)
        queue.schedule(200, lambda when: None)
        assert queue.peek_time() == 100

    def test_negative_time_rejected(self, queue):
        with pytest.raises(SimulationError):
            queue.schedule(-5, lambda when: None)

    def test_len_counts_pending(self, queue):
        queue.schedule(10, lambda when: None)
        queue.schedule(20, lambda when: None)
        assert len(queue) == 2


class TestDispatch:
    def test_dispatch_due_fires_in_time_order(self, queue):
        fired = []
        queue.schedule(200, lambda when: fired.append(200))
        queue.schedule(100, lambda when: fired.append(100))
        count = queue.dispatch_due(250)
        assert count == 2
        assert fired == [100, 200]

    def test_dispatch_respects_now(self, queue):
        fired = []
        queue.schedule(100, lambda when: fired.append(100))
        queue.schedule(300, lambda when: fired.append(300))
        queue.dispatch_due(150)
        assert fired == [100]
        assert queue.peek_time() == 300

    def test_ties_dispatch_in_insertion_order(self, queue):
        fired = []
        queue.schedule(100, lambda when: fired.append("first"))
        queue.schedule(100, lambda when: fired.append("second"))
        queue.dispatch_due(100)
        assert fired == ["first", "second"]

    def test_callback_receives_scheduled_time(self, queue):
        seen = []
        queue.schedule(123, seen.append)
        queue.dispatch_due(500)
        assert seen == [123]

    def test_callback_may_schedule_due_event(self, queue):
        fired = []

        def first(when):
            fired.append("first")
            queue.schedule(when, lambda w: fired.append("nested"))

        queue.schedule(100, first)
        queue.dispatch_due(100)
        assert fired == ["first", "nested"]

    def test_reentrant_dispatch_rejected(self, queue):
        def evil(when):
            queue.dispatch_due(when)

        queue.schedule(10, evil)
        with pytest.raises(SimulationError):
            queue.dispatch_due(10)


class TestCancellation:
    def test_cancelled_event_not_fired(self, queue):
        fired = []
        handle = queue.schedule(100, lambda when: fired.append(1))
        handle.cancel()
        queue.dispatch_due(200)
        assert fired == []

    def test_cancel_is_idempotent(self, queue):
        handle = queue.schedule(100, lambda when: None)
        handle.cancel()
        handle.cancel()
        assert handle._cancelled

    def test_peek_skips_cancelled(self, queue):
        first = queue.schedule(100, lambda when: None)
        queue.schedule(200, lambda when: None)
        first.cancel()
        assert queue.peek_time() == 200

    def test_clear(self, queue):
        queue.schedule(1, lambda when: None)
        queue.schedule(2, lambda when: None)
        queue.clear()
        assert queue.peek_time() is None
        assert len(queue) == 0


class TestLiveCounter:
    """len() is a maintained counter (O(1)), not a heap scan."""

    def test_cancel_updates_len_without_dispatch(self, queue):
        handles = [queue.schedule(t, lambda when: None) for t in (10, 20, 30)]
        handles[1].cancel()
        assert len(queue) == 2

    def test_double_cancel_decrements_once(self, queue):
        handle = queue.schedule(10, lambda when: None)
        queue.schedule(20, lambda when: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 1

    def test_dispatch_decrements(self, queue):
        queue.schedule(10, lambda when: None)
        queue.schedule(20, lambda when: None)
        queue.dispatch_due(15)
        assert len(queue) == 1
        queue.dispatch_due(25)
        assert len(queue) == 0

    def test_callback_rescheduling_keeps_count(self, queue):
        queue.schedule(10, lambda when: queue.schedule(when + 100,
                                                       lambda w: None))
        queue.dispatch_due(10)
        assert len(queue) == 1

    def test_mixed_sequence_matches_heap_scan(self, queue):
        handles = [queue.schedule(t, lambda when: None)
                   for t in (5, 10, 15, 20, 25)]
        handles[0].cancel()
        handles[3].cancel()
        queue.dispatch_due(15)            # fires 10 and 15; 5 was cancelled
        expected = sum(1 for _when, _seq, event in queue._heap
                       if not event._cancelled)
        assert len(queue) == expected == 1


class TestClearCancelsHandles:
    def test_clear_cancels_outstanding_handles(self, queue):
        handle = queue.schedule(100, lambda when: None)
        queue.clear()
        assert handle._cancelled
        assert len(queue) == 0

    def test_cleared_handle_cancel_is_safe(self, queue):
        handle = queue.schedule(100, lambda when: None)
        queue.clear()
        handle.cancel()                   # idempotent, no double-decrement
        assert len(queue) == 0

    def test_schedule_after_clear(self, queue):
        queue.schedule(100, lambda when: None)
        queue.clear()
        queue.schedule(50, lambda when: None)
        assert len(queue) == 1
        assert queue.peek_time() == 50
