"""Kernel sample ring buffer with back-pressure.

K-LEB pools samples in kernel memory until the controller process is
scheduled and drains them with batched reads (§III).  If the controller
is starved and the buffer fills, a *safety mechanism* pauses collection
until space is freed — implemented here as the ``paused`` flag, which
the K-LEB module checks before pushing and clears on drain.

The buffer also supports *capacity squeezes* — a temporarily reduced
effective capacity, used by fault injection to model memory pressure on
the kernel sample pool — and keeps conservation counters
(``total_pushed``/``total_drained``/``total_cleared``/``dropped``) so
no sample can be lost untracked.
These counters, the episode counts and the lifetime ``peak`` are the
pool's only accounting: a ring registers with the active recorder, and
metrics, report metadata and live snapshots all read them.

Two storage layouts share the accounting machinery:

* :class:`ColumnarRing` — the K-LEB sample pool: a struct-of-arrays
  layout with one preallocated ``array('q')`` per event column plus
  one for timestamps, pushed row-wise and drained as a
  :class:`~repro.samples.SampleColumns` of column slices, so the
  interrupt hot path never builds a per-sample dict.  Every session
  has a fixed row schema (a multiplexed one included), so this is the
  only layout the module allocates; :class:`PerCpuRing` keeps one per
  core.
* :class:`RingBuffer` — the generic deque of Python objects, kept as
  the plain reference model the columnar rings are checked against.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from typing import Deque, Generic, List, Optional, Sequence, TypeVar

from repro.errors import KernelError
from repro.obs import hooks as _obs_hooks
from repro.samples import SampleColumns

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Bounded FIFO with explicit back-pressure accounting."""

    def __init__(self, capacity: int,
                 resume_threshold: Optional[int] = None) -> None:
        if capacity <= 0:
            raise KernelError("ring buffer capacity must be positive")
        self.capacity = capacity
        # Collection resumes once occupancy drops to this level.
        self.resume_threshold = (
            resume_threshold if resume_threshold is not None else capacity // 2
        )
        if not 0 <= self.resume_threshold < capacity:
            raise KernelError("resume threshold must be in [0, capacity)")
        self._squeezed_capacity: Optional[int] = None
        self.paused = False
        self.dropped = 0
        self.total_pushed = 0
        self.total_drained = 0
        self.total_cleared = 0
        self.pause_episodes = 0
        self.resumes = 0
        self.squeeze_episodes = 0
        self.high_watermark = 0
        # Lifetime peak occupancy: take_high_watermark never resets it.
        self.peak = 0
        self._init_storage()
        recorder = _obs_hooks.active()
        if recorder is not None:
            recorder.rings.append(self)

    # -- storage hooks (overridden by ColumnarRing) --------------------
    def _init_storage(self) -> None:
        self._entries: Deque[T] = deque()

    def _occupancy(self) -> int:
        return len(self._entries)

    def _take(self, count: int):
        entries = self._entries
        return [entries.popleft() for _ in range(count)]

    def _wipe(self) -> None:
        self._entries.clear()

    # -- shared accounting ---------------------------------------------
    def __len__(self) -> int:
        return self._occupancy()

    @property
    def effective_capacity(self) -> int:
        """Nominal capacity, or the squeezed capacity while under one."""
        if self._squeezed_capacity is not None:
            return self._squeezed_capacity
        return self.capacity

    @property
    def squeezed(self) -> bool:
        return self._squeezed_capacity is not None

    @property
    def full(self) -> bool:
        return self._occupancy() >= self.effective_capacity

    def squeeze(self, capacity: int) -> None:
        """Temporarily cap effective capacity (memory pressure).

        Occupancy above the squeezed capacity is kept — the squeeze
        refuses *new* pushes (back-pressure) rather than discarding
        samples already pooled.
        """
        if capacity <= 0:
            raise KernelError(
                f"squeeze capacity must be positive, got {capacity}"
            )
        if self._squeezed_capacity is None:
            self.squeeze_episodes += 1
        self._squeezed_capacity = min(int(capacity), self.capacity)

    def unsqueeze(self) -> None:
        """Restore nominal capacity.  Idempotent."""
        self._squeezed_capacity = None

    def _admit(self) -> bool:
        """Back-pressure gate shared by every push flavour."""
        if self.paused or self.full:
            if not self.paused:
                self.paused = True
                self.pause_episodes += 1
            self.dropped += 1
            return False
        return True

    def _committed(self) -> None:
        """Post-push accounting shared by every push flavour."""
        self.total_pushed += 1
        size = self._occupancy()
        if size > self.high_watermark:
            self.high_watermark = size
            if size > self.peak:  # high_watermark <= peak always
                self.peak = size
        if self.full:
            self.paused = True
            self.pause_episodes += 1

    def push(self, item: T) -> bool:
        """Append a sample; returns False (and pauses) when full.

        While paused, pushes are refused and counted as dropped — the
        module is expected to stop producing until :meth:`drain` frees
        space below the resume threshold.
        """
        if not self._admit():
            return False
        self._entries.append(item)
        self._committed()
        return True

    def drain(self, max_items: Optional[int] = None):
        """Remove and return up to ``max_items`` samples (all by default).

        Raises :class:`KernelError` for a negative ``max_items`` — a
        silent empty batch would mask a caller bug as starvation.
        Returns a list for the generic buffer and a
        :class:`~repro.samples.SampleColumns` for :class:`ColumnarRing`.
        """
        if max_items is not None and max_items < 0:
            raise KernelError(
                f"drain max_items must be non-negative, got {max_items}"
            )
        size = self._occupancy()
        count = size if max_items is None else min(max_items, size)
        drained = self._take(count)
        self.total_drained += count
        if self.paused and self._occupancy() <= self.resume_threshold:
            self.paused = False
            self.resumes += 1
        return drained

    def take_high_watermark(self) -> int:
        """Peak occupancy since the last call; resets to current fill.

        The adaptive controller reads this once per drain cycle as its
        buffer-pressure signal — peak-between-reads, not instantaneous
        fill, since the drain itself empties the buffer.
        """
        peak = self.high_watermark
        self.high_watermark = self._occupancy()
        return peak

    def clear(self) -> None:
        """Drop everything and resume collection."""
        self.total_cleared += self._occupancy()
        self._wipe()
        if self.paused:
            self.paused = False
            self.resumes += 1


class ColumnarRing(RingBuffer):
    """Struct-of-arrays ring for fixed-schema counter samples.

    ``names`` fixes the event-column schema at allocation time (the
    K-LEB module knows its programmed layout before collection
    starts).  :meth:`push_row` appends one sample into the preallocated
    typed columns; :meth:`drain` returns a :class:`SampleColumns`.  All
    back-pressure, squeeze, and conservation semantics are inherited
    unchanged from :class:`RingBuffer`.
    """

    def __init__(self, capacity: int, names: Sequence[str],
                 resume_threshold: Optional[int] = None) -> None:
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise KernelError("columnar ring event names must be unique")
        super().__init__(capacity, resume_threshold)

    # -- storage hooks --------------------------------------------------
    def _init_storage(self) -> None:
        zeros = array("q", bytes(8 * self.capacity))
        self._timestamps = array("q", zeros)
        self._columns = [array("q", zeros) for _ in self.names]
        self._head = 0
        self._size = 0

    def _occupancy(self) -> int:
        return self._size

    def _segments(self, count: int):
        """(start, stop) index pairs covering the oldest ``count`` rows."""
        head = self._head
        capacity = self.capacity
        first = min(count, capacity - head)
        if first == count:
            return ((head, head + count),)
        return ((head, capacity), (0, count - first))

    def _take(self, count: int) -> SampleColumns:
        segments = self._segments(count)
        if len(segments) == 1:
            start, stop = segments[0]
            timestamps = self._timestamps[start:stop]
            columns = [column[start:stop] for column in self._columns]
        else:
            (s0, e0), (s1, e1) = segments
            timestamps = self._timestamps[s0:e0] + self._timestamps[s1:e1]
            columns = [column[s0:e0] + column[s1:e1]
                       for column in self._columns]
        self._head = (self._head + count) % self.capacity
        self._size -= count
        return SampleColumns(self.names, timestamps, columns)

    def _wipe(self) -> None:
        self._head = 0
        self._size = 0

    # -- row push (the module's interrupt-handler hot path) -------------
    def push_row(self, timestamp: int, values: Sequence[int]) -> bool:
        """Append one sample given column-ordered values."""
        if not self._admit():
            return False
        slot = (self._head + self._size) % self.capacity
        self._timestamps[slot] = timestamp
        columns = self._columns
        for index, value in enumerate(values):
            columns[index][slot] = value
        self._size += 1
        self._committed()
        return True

    def peek_timestamp(self, index: int) -> int:
        """Timestamp of the ``index``-th oldest pending row (no removal).

        Used by :class:`PerCpuRing` to plan its merging drain without
        disturbing per-ring accounting.
        """
        if not 0 <= index < self._size:
            raise KernelError(
                f"peek index {index} out of range for occupancy {self._size}"
            )
        return self._timestamps[(self._head + index) % self.capacity]


class PerCpuRing:
    """One :class:`ColumnarRing` per CPU with a merging drain.

    This mirrors the per-CPU buffer design perf uses on real SMP
    kernels: each core's interrupt handler writes into a private ring
    (no cross-core synchronization on the push path), and the reader
    merges the per-CPU streams back into one timestamp-ordered stream.

    Merge semantics: the drain repeatedly takes the ring whose *oldest*
    pending row has the smallest ``(timestamp, cpu)`` key — per-CPU FIFO
    order is preserved by construction (a ring's rows are only ever
    consumed oldest-first) and ties are broken by cpu index.  The merged
    :class:`SampleColumns` carries an extra trailing ``cpu`` column.

    Accounting (pause/drop/pushed/drained/cleared/high-watermark) lives
    in the per-CPU rings, exactly as on real hardware where each CPU's
    buffer back-pressures independently; the aggregate properties below
    expose sums (and ``paused`` as *any ring paused*) so the K-LEB
    controller's pressure signals work unchanged.  Each per-CPU ring
    registers with the recorder on its own.
    """

    def __init__(self, capacity_per_cpu: int, names: Sequence[str],
                 cpus: int,
                 resume_threshold: Optional[int] = None) -> None:
        if cpus <= 0:
            raise KernelError(
                f"per-cpu ring needs at least one cpu, got {cpus}"
            )
        if "cpu" in names:
            raise KernelError(
                "'cpu' is a reserved column name in a per-cpu ring"
            )
        self.cpus = cpus
        self.capacity_per_cpu = capacity_per_cpu
        self.names = tuple(names) + ("cpu",)
        self.rings = [ColumnarRing(capacity_per_cpu, names, resume_threshold)
                      for _ in range(cpus)]

    # -- aggregate accounting (controller-compatible surface) -----------
    def __len__(self) -> int:
        return sum(len(ring) for ring in self.rings)

    @property
    def capacity(self) -> int:
        return sum(ring.capacity for ring in self.rings)

    @property
    def effective_capacity(self) -> int:
        return sum(ring.effective_capacity for ring in self.rings)

    @property
    def paused(self) -> bool:
        return any(ring.paused for ring in self.rings)

    @property
    def full(self) -> bool:
        return all(ring.full for ring in self.rings)

    @property
    def dropped(self) -> int:
        return sum(ring.dropped for ring in self.rings)

    @property
    def pause_episodes(self) -> int:
        return sum(ring.pause_episodes for ring in self.rings)

    def take_high_watermark(self) -> int:
        """Sum of per-ring peaks since the last call (each ring resets
        to its current fill, matching :meth:`RingBuffer.take_high_watermark`)."""
        return sum(ring.take_high_watermark() for ring in self.rings)

    def squeeze(self, capacity: int) -> None:
        """Squeeze every per-CPU ring to an equal share of ``capacity``
        (at least one slot each)."""
        if capacity <= 0:
            raise KernelError(
                f"squeeze capacity must be positive, got {capacity}"
            )
        share = max(1, capacity // self.cpus)
        for ring in self.rings:
            ring.squeeze(share)

    def unsqueeze(self) -> None:
        for ring in self.rings:
            ring.unsqueeze()

    @property
    def squeezed(self) -> bool:
        return any(ring.squeezed for ring in self.rings)

    def clear(self) -> None:
        for ring in self.rings:
            ring.clear()

    # -- per-cpu push (each core's interrupt-handler hot path) ----------
    def push_row(self, cpu: int, timestamp: int,
                 values: Sequence[int]) -> bool:
        """Append one sample into ``cpu``'s private ring."""
        return self.rings[cpu].push_row(timestamp, values)

    # -- merging drain ---------------------------------------------------
    def drain(self, max_items: Optional[int] = None) -> SampleColumns:
        """Merge up to ``max_items`` rows across CPUs in timestamp order.

        Two passes: first plan the interleaving by peeking each ring's
        oldest pending timestamps (k-way merge on ``(timestamp, cpu)``),
        then execute one bulk :meth:`ColumnarRing.drain` per ring so all
        per-ring accounting (resume thresholds, drained totals) is
        maintained by the rings themselves.
        """
        if max_items is not None and max_items < 0:
            raise KernelError(
                f"drain max_items must be non-negative, got {max_items}"
            )
        rings = self.rings
        pending = [len(ring) for ring in rings]
        limit = sum(pending) if max_items is None else min(max_items,
                                                          sum(pending))
        cursors = [0] * self.cpus
        heap = [(rings[cpu].peek_timestamp(0), cpu)
                for cpu in range(self.cpus) if pending[cpu]]
        heapq.heapify(heap)
        order: List[int] = []
        while heap and len(order) < limit:
            _, cpu = heapq.heappop(heap)
            order.append(cpu)
            cursors[cpu] += 1
            if cursors[cpu] < pending[cpu]:
                heapq.heappush(
                    heap, (rings[cpu].peek_timestamp(cursors[cpu]), cpu))
        batches = {cpu: rings[cpu].drain(taken)
                   for cpu, taken in enumerate(cursors) if taken}
        merged_ts = array("q")
        merged_cols = [array("q") for _ in self.names]
        value_cols = merged_cols[:-1]
        cpu_col = merged_cols[-1]
        row_of = [0] * self.cpus
        for cpu in order:
            batch = batches[cpu]
            row = row_of[cpu]
            row_of[cpu] = row + 1
            merged_ts.append(batch.timestamps[row])
            for out, col in zip(value_cols, batch.columns):
                out.append(col[row])
            cpu_col.append(cpu)
        return SampleColumns(self.names, merged_ts, merged_cols)
