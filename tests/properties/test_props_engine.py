"""Property-based tests: EventQueue vs a reference pure-heap model.

The optimized queue (tuple heap entries, lazy-cancel tombstones with
adaptive compaction, tombstone-popping peeks) must dispatch in exactly
the same order as the obvious model: scan pending entries, fire the
``(when, seq)`` minimum, repeat.  FIFO tie-break for same-time events
included — that ordering is what keeps the whole simulation
deterministic.  The queue's own counts (fired, cancelled, peak depth)
must match the model's too, as read through a recorder's projection.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import hooks
from repro.sim.engine import EventQueue


class ReferenceQueue:
    """The obvious model: a flat list scanned for the (when, seq) min."""

    def __init__(self):
        self._entries = []
        self._seq = 0
        self.fired = 0
        self.cancelled = 0  # cancels that hit a still-pending entry
        self.peak = 0

    def schedule(self, when, label):
        entry = {"when": when, "seq": self._seq, "label": label,
                 "live": True}
        self._seq += 1
        self._entries.append(entry)
        self.peak = max(self.peak, self.live_count())
        return entry

    def cancel(self, entry):
        if entry["live"]:
            self.cancelled += 1
        entry["live"] = False

    def live_count(self):
        return sum(1 for entry in self._entries if entry["live"])

    def peek_time(self):
        return min((entry["when"] for entry in self._entries
                    if entry["live"]), default=None)

    def dispatch_due(self, now, fired):
        while True:
            due = [entry for entry in self._entries
                   if entry["live"] and entry["when"] <= now]
            if not due:
                return
            entry = min(due, key=lambda e: (e["when"], e["seq"]))
            entry["live"] = False
            self.fired += 1
            fired.append((entry["label"], entry["when"]))


# A narrow time range forces plenty of ties (FIFO tie-break coverage);
# cancel indexes are taken modulo the number of issued handles, so they
# hit both pending and already-fired events.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("dispatch"), st.integers(0, 60)),
    ),
    max_size=200,
)


def _projected_counts(recorder):
    registry = recorder.registry
    return tuple(int(registry.get(name).default.value) for name in (
        "sim_events_fired_total", "sim_events_cancelled_total",
        "sim_queue_depth_high_water"))


class TestMatchesReferenceModel:
    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_op_sequences(self, ops):
        recorder = hooks.Recorder(trace=False)
        hooks.install(recorder)
        try:
            queue = EventQueue()
        finally:
            hooks.reset()
        model = ReferenceQueue()
        real_fired = []
        model_fired = []
        handles = []

        def make_callback(label):
            return lambda when: real_fired.append((label, when))

        for op, value in ops:
            if op == "schedule":
                label = f"e{len(handles)}"
                handles.append((
                    queue.schedule(value, make_callback(label), label),
                    model.schedule(value, label),
                ))
            elif op == "cancel":
                if handles:
                    real, ref = handles[value % len(handles)]
                    real.cancel()
                    model.cancel(ref)
            else:
                assert queue.peek_time() == model.peek_time()
                queue.dispatch_due(value)
                model.dispatch_due(value, model_fired)
                assert real_fired == model_fired
                assert len(queue) == model.live_count()
        queue.dispatch_due(10**9)
        model.dispatch_due(10**9, model_fired)
        assert real_fired == model_fired
        assert len(queue) == model.live_count() == 0
        assert _projected_counts(recorder) == (
            model.fired, model.cancelled, model.peak)

    def test_compaction_preserves_dispatch_order(self):
        """Enough tombstones to trigger heap rebuilds mid-sequence."""
        queue = EventQueue()
        model = ReferenceQueue()
        real_fired = []
        model_fired = []

        def make_callback(label):
            return lambda when: real_fired.append((label, when))

        handles = []
        for index in range(300):
            when = index % 50  # heavy ties
            label = f"e{index}"
            handles.append((
                queue.schedule(when, make_callback(label), label),
                model.schedule(when, label),
            ))
        for index, (real, ref) in enumerate(handles):
            if index % 3:
                real.cancel()
                model.cancel(ref)
        # 200 cancellations against 300 entries crosses both compaction
        # thresholds (>= 64 tombstones, majority of the heap).
        assert len(queue._heap) < 300
        assert queue.peek_time() == model.peek_time()
        queue.dispatch_due(100)
        model.dispatch_due(100, model_fired)
        assert real_fired == model_fired
        assert len(real_fired) == 100
        assert len(queue) == model.live_count() == 0

    def test_cancel_after_fire_keeps_counters_consistent(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(10, fired.append)
        queue.schedule(20, fired.append)
        queue.dispatch_due(15)
        handle.cancel()  # already fired: flag flips, counters untouched
        assert handle._cancelled
        assert len(queue) == 1
        queue.dispatch_due(25)
        assert fired == [10, 20]
        assert len(queue) == 0
