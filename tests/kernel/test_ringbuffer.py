"""Ring buffer: FIFO order, capacity, back-pressure (paper §III)."""

import pytest

from repro.errors import KernelError
from repro.kernel.ringbuffer import RingBuffer


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(KernelError):
            RingBuffer(0)

    def test_invalid_resume_threshold(self):
        with pytest.raises(KernelError):
            RingBuffer(4, resume_threshold=4)

    def test_push_drain_fifo(self):
        buffer = RingBuffer(8)
        for value in range(5):
            assert buffer.push(value)
        assert buffer.drain() == [0, 1, 2, 3, 4]
        assert len(buffer) == 0

    def test_drain_max_items(self):
        buffer = RingBuffer(8)
        for value in range(5):
            buffer.push(value)
        assert buffer.drain(2) == [0, 1]
        assert buffer.drain(10) == [2, 3, 4]

    def test_total_pushed_counts_accepted_only(self):
        buffer = RingBuffer(2)
        buffer.push(1)
        buffer.push(2)
        buffer.push(3)  # refused
        assert buffer.total_pushed == 2

    def test_negative_drain_rejected(self):
        """A negative max_items is a caller bug, not an empty batch."""
        buffer = RingBuffer(4)
        buffer.push(1)
        with pytest.raises(KernelError):
            buffer.drain(-1)
        assert len(buffer) == 1  # nothing consumed by the failed call

    def test_drain_and_clear_counters(self):
        buffer = RingBuffer(8)
        for value in range(6):
            buffer.push(value)
        buffer.drain(2)
        buffer.clear()
        assert buffer.total_drained == 2
        assert buffer.total_cleared == 4
        # Conservation: everything accepted is drained, cleared, or held.
        assert buffer.total_pushed == (
            buffer.total_drained + buffer.total_cleared + len(buffer)
        )


class TestSqueeze:
    def test_squeeze_caps_effective_capacity(self):
        buffer = RingBuffer(8)
        buffer.squeeze(2)
        assert buffer.squeezed
        assert buffer.effective_capacity == 2
        buffer.push(1)
        buffer.push(2)
        assert buffer.paused
        assert not buffer.push(3)
        assert buffer.dropped == 1

    def test_unsqueeze_restores_nominal_capacity(self):
        buffer = RingBuffer(8)
        buffer.squeeze(2)
        buffer.unsqueeze()
        assert not buffer.squeezed
        assert buffer.effective_capacity == 8
        buffer.unsqueeze()  # idempotent

    def test_squeeze_never_exceeds_nominal(self):
        buffer = RingBuffer(4)
        buffer.squeeze(100)
        assert buffer.effective_capacity == 4

    def test_squeeze_keeps_existing_occupancy(self):
        """A squeeze refuses new pushes; it never discards pooled
        samples."""
        buffer = RingBuffer(8)
        for value in range(5):
            buffer.push(value)
        buffer.squeeze(2)
        assert len(buffer) == 5
        assert buffer.drain() == [0, 1, 2, 3, 4]

    def test_invalid_squeeze_rejected(self):
        buffer = RingBuffer(8)
        with pytest.raises(KernelError):
            buffer.squeeze(0)


class TestBackPressure:
    def test_fill_pauses_collection(self):
        buffer = RingBuffer(2)
        assert buffer.push(1)
        assert buffer.push(2)
        assert buffer.paused          # hit capacity
        assert not buffer.push(3)     # refused while paused
        assert buffer.dropped == 1

    def test_pause_episode_counted_once_per_fill(self):
        buffer = RingBuffer(2)
        buffer.push(1)
        buffer.push(2)
        buffer.push(3)
        buffer.push(4)
        assert buffer.pause_episodes == 1

    def test_drain_below_threshold_resumes(self):
        buffer = RingBuffer(4, resume_threshold=1)
        for value in range(4):
            buffer.push(value)
        assert buffer.paused
        buffer.drain(2)               # occupancy 2 > threshold 1
        assert buffer.paused
        buffer.drain(1)               # occupancy 1 == threshold
        assert not buffer.paused
        assert buffer.push(99)

    def test_collection_resumes_automatically_after_drain(self):
        """Paper: 'When the controller process finally extracts the data
        and clears the buffer, K-LEB will continue collecting.'"""
        buffer = RingBuffer(2, resume_threshold=0)
        buffer.push(1)
        buffer.push(2)
        assert not buffer.push(3)
        buffer.drain()
        assert buffer.push(4)
        assert buffer.drain() == [4]

    def test_clear_resets_pause(self):
        buffer = RingBuffer(2)
        buffer.push(1)
        buffer.push(2)
        buffer.clear()
        assert not buffer.paused
        assert len(buffer) == 0


class TestHighWatermark:
    """Peak-occupancy tracking for the adaptive controller's pressure
    sensor: the watermark records the worst fill level between drains."""

    def test_watermark_tracks_peak_occupancy(self):
        buffer = RingBuffer(8)
        for value in range(5):
            buffer.push(value)
        buffer.drain()
        assert buffer.take_high_watermark() == 5

    def test_take_resets_to_current_occupancy(self):
        buffer = RingBuffer(8)
        for value in range(6):
            buffer.push(value)
        buffer.drain(4)  # two left
        assert buffer.take_high_watermark() == 6
        # After the take, the floor is what is still pooled.
        assert buffer.take_high_watermark() == 2
        buffer.push(10)
        assert buffer.take_high_watermark() == 3

    def test_watermark_unaffected_by_rejected_pushes(self):
        buffer = RingBuffer(2)
        buffer.push(1)
        buffer.push(2)
        buffer.push(3)  # rejected: full
        assert buffer.take_high_watermark() == 2

    def test_empty_buffer_watermark_zero(self):
        buffer = RingBuffer(4)
        assert buffer.take_high_watermark() == 0


class TestPerCpuPauseIsolation:
    """A merging drain must not resume rings it never consumed from.

    Regression pin for a scenario the lockstep Hypothesis machine
    found: with every ring squeezed to one slot and two CPUs paused, a
    drain(1) consumes only the merge winner — the losing ring was
    never drained, so its back-pressure must hold (a zero-item drain
    would run the resume check and unpause a still-full ring).
    """

    def test_untouched_ring_stays_paused(self):
        from repro.kernel.ringbuffer import PerCpuRing

        ring = PerCpuRing(4, ("A", "B"), cpus=3, resume_threshold=2)
        ring.squeeze(1)  # one slot per cpu
        assert ring.push_row(0, 0, [1, 2])
        assert ring.push_row(1, 0, [3, 4])
        assert ring.rings[0].paused and ring.rings[1].paused

        batch = ring.drain(1)
        assert len(batch) == 1
        assert batch.columns[-1][0] == 0  # cpu 0 wins the (0, cpu) tie
        assert not ring.rings[0].paused   # drained below threshold
        assert ring.rings[1].paused       # untouched: still full, paused
        assert ring.paused                # aggregate: any ring paused
