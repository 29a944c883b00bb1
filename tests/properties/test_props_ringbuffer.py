"""Property-based tests for the kernel ring buffer."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kernel.ringbuffer import ColumnarRing, PerCpuRing, RingBuffer


class TestSequences:
    @given(st.lists(st.integers(), max_size=300),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_drained_items_preserve_push_order(self, items, capacity):
        buffer = RingBuffer(capacity)
        accepted = [item for item in items if buffer.push(item)]
        drained = buffer.drain()
        assert drained == accepted[:len(drained)]

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_accounting_balances(self, capacity, pushes):
        buffer = RingBuffer(capacity)
        for value in range(pushes):
            buffer.push(value)
        assert buffer.total_pushed + buffer.dropped == pushes
        assert len(buffer) == buffer.total_pushed  # nothing drained yet

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_full_drain_always_resumes(self, capacity):
        buffer = RingBuffer(capacity)
        for value in range(capacity + 10):
            buffer.push(value)
        assert buffer.paused
        buffer.drain()
        assert not buffer.paused
        assert buffer.push(1)


class TestBackPressure:
    """Safety-stop behaviour under sustained controller starvation."""

    @given(st.integers(min_value=2, max_value=64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pause_resume_hysteresis(self, capacity, data):
        """Collection resumes exactly when occupancy first reaches the
        resume threshold, and not one item sooner."""
        threshold = data.draw(
            st.integers(min_value=0, max_value=capacity - 1)
        )
        buffer = RingBuffer(capacity, resume_threshold=threshold)
        for value in range(capacity):
            buffer.push(value)
        assert buffer.paused
        while len(buffer) > threshold + 1:
            buffer.drain(1)
            assert buffer.paused  # still above threshold
        buffer.drain(1)
        assert not buffer.paused
        assert buffer.push(99)

    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_drop_accounting_under_sustained_starvation(
            self, capacity, extra):
        """Every push the buffer refuses is counted as dropped — the
        paper's accounting must balance exactly, never approximately."""
        buffer = RingBuffer(capacity)
        offered = capacity + extra
        for value in range(offered):
            buffer.push(value)
        assert buffer.total_pushed == capacity
        assert buffer.dropped == offered - capacity
        # Filling to capacity opens exactly one episode, however long
        # the starvation lasts.
        assert buffer.pause_episodes == 1
        assert buffer.total_pushed + buffer.dropped == offered

    @given(st.integers(min_value=2, max_value=32),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_clear_during_pause_episode(self, capacity, extra):
        """clear() mid-episode lifts the pause, tracks every discarded
        sample in total_cleared, and lets collection restart."""
        buffer = RingBuffer(capacity)
        for value in range(capacity + extra):
            buffer.push(value)
        assert buffer.paused
        held = len(buffer)
        buffer.clear()
        assert not buffer.paused
        assert len(buffer) == 0
        assert buffer.total_cleared == held
        assert buffer.push(1)  # a fresh episode can begin
        assert buffer.total_pushed == capacity + 1

    @given(st.lists(st.sampled_from(["push", "drain", "clear"]),
                    max_size=400),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_conservation_under_arbitrary_interleaving(
            self, operations, capacity):
        """total_pushed == total_drained + total_cleared + occupancy
        after any operation sequence: no sample lost untracked."""
        buffer = RingBuffer(capacity)
        offered = 0
        for operation in operations:
            if operation == "push":
                offered += 1
                buffer.push(offered)
            elif operation == "drain":
                buffer.drain(3)
            else:
                buffer.clear()
            assert buffer.total_pushed == (
                buffer.total_drained + buffer.total_cleared + len(buffer)
            )
            assert buffer.total_pushed + buffer.dropped == offered


class RingBufferMachine(RuleBasedStateMachine):
    """Stateful model check: the buffer vs a plain list model."""

    def __init__(self):
        super().__init__()
        self.buffer = RingBuffer(8, resume_threshold=4)
        self.model = []
        self.max_occupancy = 0

    @rule(value=st.integers())
    def push(self, value):
        accepted = self.buffer.push(value)
        if accepted:
            self.model.append(value)
            self.max_occupancy = max(self.max_occupancy, len(self.model))

    @rule(count=st.integers(min_value=1, max_value=10))
    def drain(self, count):
        drained = self.buffer.drain(count)
        expected = self.model[:len(drained)]
        assert drained == expected
        del self.model[:len(drained)]

    @rule()
    def clear(self):
        self.buffer.clear()
        self.model = []

    @rule()
    def take_high_watermark(self):
        self.buffer.take_high_watermark()

    @invariant()
    def occupancy_matches_model(self):
        assert len(self.buffer) == len(self.model)

    @invariant()
    def peak_is_the_lifetime_max_occupancy(self):
        # take_high_watermark resets the between-reads mark, never this.
        assert self.buffer.peak == self.max_occupancy

    @invariant()
    def each_pause_episode_resumes_at_most_once(self):
        buffer = self.buffer
        assert buffer.resumes <= buffer.pause_episodes
        assert buffer.pause_episodes - buffer.resumes == int(buffer.paused)

    @invariant()
    def conservation_holds(self):
        buffer = self.buffer
        assert buffer.total_pushed == (
            buffer.total_drained + buffer.total_cleared + len(buffer)
        )

    @invariant()
    def never_over_capacity(self):
        assert len(self.buffer) <= self.buffer.capacity

    @invariant()
    def paused_implies_above_threshold(self):
        if self.buffer.paused:
            assert len(self.buffer) > self.buffer.resume_threshold


TestRingBufferStateful = RingBufferMachine.TestCase


class ColumnarLockstepMachine(RuleBasedStateMachine):
    """Stateful lockstep check: ColumnarRing vs the generic RingBuffer.

    Both rings see the same operation stream — pushes (accepted or
    refused identically), partial drains that wrap the circular
    columns, squeezes, unsqueezes, and clears — and must agree on
    every drained row and every accounting counter (back-pressure,
    drop, and conservation semantics are shared machinery).
    """

    NAMES = ("INST_RETIRED", "LOADS", "LLC_MISSES")

    def __init__(self):
        super().__init__()
        self.reference = RingBuffer(8, resume_threshold=4)
        self.columnar = ColumnarRing(8, self.NAMES, resume_threshold=4)
        self.offered = 0
        self.squeezed = False
        self.squeeze_episodes = 0

    @rule(values=st.tuples(*[st.integers(-2**62, 2**62)] * 3))
    def push(self, values):
        self.offered += 1
        timestamp = self.offered
        accepted_ref = self.reference.push((timestamp, values))
        accepted_col = self.columnar.push_row(timestamp, list(values))
        assert accepted_ref == accepted_col

    @rule(count=st.integers(min_value=1, max_value=10))
    def drain(self, count):
        drained_ref = self.reference.drain(count)
        batch = self.columnar.drain(count)
        rows = [
            (row.timestamp,
             tuple(row.values[name] for name in self.NAMES))
            for row in batch
        ]
        assert rows == drained_ref

    @rule(capacity=st.integers(min_value=1, max_value=8))
    def squeeze(self, capacity):
        # Only a fresh squeeze opens an episode; re-squeezing while
        # squeezed just moves the cap.
        if not self.squeezed:
            self.squeeze_episodes += 1
        self.squeezed = True
        self.reference.squeeze(capacity)
        self.columnar.squeeze(capacity)

    @rule()
    def unsqueeze(self):
        self.squeezed = False
        self.reference.unsqueeze()
        self.columnar.unsqueeze()

    @rule()
    def clear(self):
        self.reference.clear()
        self.columnar.clear()

    @rule()
    def take_high_watermark(self):
        assert (self.columnar.take_high_watermark()
                == self.reference.take_high_watermark())

    @invariant()
    def accounting_in_lockstep(self):
        ref, col = self.reference, self.columnar
        assert len(col) == len(ref)
        assert col.paused == ref.paused
        assert col.dropped == ref.dropped
        assert col.total_pushed == ref.total_pushed
        assert col.total_drained == ref.total_drained
        assert col.total_cleared == ref.total_cleared
        assert col.pause_episodes == ref.pause_episodes
        assert col.resumes == ref.resumes
        assert col.squeeze_episodes == ref.squeeze_episodes
        assert col.high_watermark == ref.high_watermark
        assert col.peak == ref.peak
        assert col.effective_capacity == ref.effective_capacity

    @invariant()
    def episode_counts_match_the_model(self):
        col = self.columnar
        assert col.squeeze_episodes == self.squeeze_episodes
        assert col.resumes <= col.pause_episodes
        assert col.pause_episodes - col.resumes == int(col.paused)

    @invariant()
    def conservation_holds(self):
        col = self.columnar
        assert col.total_pushed == (
            col.total_drained + col.total_cleared + len(col)
        )
        assert col.total_pushed + col.dropped == self.offered


TestColumnarLockstepStateful = ColumnarLockstepMachine.TestCase


class PerCpuLockstepMachine(RuleBasedStateMachine):
    """Stateful lockstep check: PerCpuRing vs per-CPU reference rings.

    The reference keeps one generic :class:`RingBuffer` per CPU and
    merges drains itself with the documented rule — repeatedly pop the
    ring whose *oldest pending* row has the smallest ``(timestamp,
    cpu)`` — so per-CPU FIFO order is preserved by construction even
    for non-monotonic timestamps.  The merged batch, its trailing
    ``cpu`` column, and every aggregate accounting counter must match
    on every step, through pushes (accepted or refused identically),
    partial drains, squeezes (per-ring fair share), unsqueezes, and
    clears.
    """

    NAMES = ("INST_RETIRED", "LLC_MISSES")
    CPUS = 3
    CAPACITY = 4

    def __init__(self):
        super().__init__()
        self.percpu = PerCpuRing(self.CAPACITY, self.NAMES,
                                 cpus=self.CPUS, resume_threshold=2)
        self.reference = [RingBuffer(self.CAPACITY, resume_threshold=2)
                          for _ in range(self.CPUS)]
        self.clock = 0
        self.offered = 0

    @rule(cpu=st.integers(min_value=0, max_value=CPUS - 1),
          delta=st.integers(min_value=-2, max_value=3),
          values=st.tuples(*[st.integers(-2**62, 2**62)] * 2))
    def push(self, cpu, delta, values):
        # Deltas can be zero (cross-CPU ties) or negative (the per-CPU
        # streams need not be mutually monotonic).
        self.clock += delta
        self.offered += 1
        accepted_ref = self.reference[cpu].push(
            (self.clock, cpu, values))
        accepted_percpu = self.percpu.push_row(
            cpu, self.clock, list(values))
        assert accepted_ref == accepted_percpu

    def _reference_merge(self, count):
        merged = []
        cursors = [0] * self.CPUS
        # Non-destructive peek at each ring's pending rows; the real
        # pops happen below once the plan is complete.
        pending = [list(ring._entries) for ring in self.reference]
        while len(merged) < count:
            best = None
            for cpu in range(self.CPUS):
                if cursors[cpu] >= len(pending[cpu]):
                    continue
                timestamp, _cpu, _values = pending[cpu][cursors[cpu]]
                key = (timestamp, cpu)
                if best is None or key < best[0]:
                    best = (key, cpu)
            if best is None:
                break
            cpu = best[1]
            merged.append(pending[cpu][cursors[cpu]])
            cursors[cpu] += 1
        for cpu in range(self.CPUS):
            # Only rings the merge consumed from are drained — an
            # untouched ring must keep its pause state (drain(0) would
            # run the resume check and unpause a still-full ring).
            if cursors[cpu]:
                self.reference[cpu].drain(cursors[cpu])
        return merged

    @rule(count=st.integers(min_value=1, max_value=10))
    def drain(self, count):
        batch = self.percpu.drain(count)
        expected = self._reference_merge(count)
        rows = [
            (row.timestamp,
             row.values["cpu"],
             tuple(row.values[name] for name in self.NAMES))
            for row in batch
        ]
        assert rows == expected

    @rule(capacity=st.integers(min_value=1, max_value=CAPACITY * CPUS))
    def squeeze(self, capacity):
        self.percpu.squeeze(capacity)
        share = max(1, capacity // self.CPUS)
        for ring in self.reference:
            ring.squeeze(share)

    @rule()
    def unsqueeze(self):
        self.percpu.unsqueeze()
        for ring in self.reference:
            ring.unsqueeze()

    @rule()
    def clear(self):
        self.percpu.clear()
        for ring in self.reference:
            ring.clear()

    @invariant()
    def accounting_in_lockstep(self):
        percpu, reference = self.percpu, self.reference
        assert len(percpu) == sum(len(ring) for ring in reference)
        assert percpu.paused == any(ring.paused for ring in reference)
        for counter in ("dropped", "pause_episodes", "effective_capacity"):
            assert getattr(percpu, counter) == sum(
                getattr(ring, counter) for ring in reference), counter
        for counter in ("total_pushed", "total_drained", "total_cleared"):
            assert sum(getattr(ring, counter) for ring in percpu.rings) == sum(
                getattr(ring, counter) for ring in reference), counter

    @invariant()
    def conservation_holds(self):
        percpu = self.percpu
        pushed, drained, cleared = (
            sum(getattr(ring, counter) for ring in percpu.rings)
            for counter in ("total_pushed", "total_drained", "total_cleared"))
        assert pushed == drained + cleared + len(percpu)
        assert pushed + percpu.dropped == self.offered

    @invariant()
    def per_cpu_episode_counts_in_lockstep(self):
        # The metrics sum these per ring and take the max of the peaks.
        for ring, reference in zip(self.percpu.rings, self.reference):
            for counter in ("resumes", "squeeze_episodes", "peak"):
                assert getattr(ring, counter) == getattr(
                    reference, counter), counter

    @invariant()
    def per_cpu_fifo_preserved(self):
        # Within each backing ring the pending timestamps are exactly
        # the reference ring's, in push order.
        for cpu in range(self.CPUS):
            ring = self.percpu.rings[cpu]
            pending = [ring.peek_timestamp(index)
                       for index in range(len(ring))]
            expected = [timestamp for timestamp, _cpu, _values in
                        self.reference[cpu]._entries]
            assert pending == expected


TestPerCpuLockstepStateful = PerCpuLockstepMachine.TestCase
