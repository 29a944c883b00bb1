"""Time-series operations on counter samples.

Tools deliver *cumulative* snapshots (counter values at each fire);
figures plot *per-interval* activity (Fig. 4's LINPACK phases, Fig. 7's
Meltdown burst), so the central operation here is differencing, plus
alignment/averaging across trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.samples import SampleColumns


@dataclass
class EventSeries:
    """Aligned per-event series: timestamps plus one array per event."""

    timestamps: np.ndarray                 # int64 ns
    values: Dict[str, np.ndarray]          # event -> float64 array

    def __len__(self) -> int:
        return len(self.timestamps)

    def event(self, name: str) -> np.ndarray:
        try:
            return self.values[name]
        except KeyError:
            known = ", ".join(sorted(self.values))
            raise ExperimentError(
                f"series has no event {name!r} (has: {known})"
            ) from None


def samples_to_series(samples: SampleColumns) -> EventSeries:
    """Stack samples into aligned arrays (cumulative values).

    Each typed column converts in one bulk buffer read, in sorted-name
    order, with no per-sample dict ever built.
    """
    if not samples:
        return EventSeries(np.array([], dtype=np.int64), {})
    timestamps = np.frombuffer(samples.timestamps, dtype=np.int64).copy()
    values = {
        name: np.frombuffer(samples.column(name),
                            dtype=np.int64).astype(np.float64)
        for name in sorted(samples.names)
    }
    return EventSeries(timestamps, values)


def deltas(series: EventSeries) -> EventSeries:
    """Per-interval activity from cumulative snapshots.

    Output has one fewer point; timestamps mark interval ends.  Counter
    wraparound (48-bit) shows up as a negative delta and is corrected.
    """
    if len(series) < 2:
        return EventSeries(np.array([], dtype=np.int64), {
            name: np.array([], dtype=np.float64) for name in series.values
        })
    wrap = float(1 << 48)
    out: Dict[str, np.ndarray] = {}
    for name, cumulative in series.values.items():
        diff = np.diff(cumulative)
        diff[diff < 0] += wrap
        out[name] = diff
    return EventSeries(series.timestamps[1:], out)


@dataclass(frozen=True)
class SampleGap:
    """A hole in a sample series: timer misses, pauses, drops.

    ``missing`` estimates how many sampling periods fell inside the
    hole (at least 1).
    """

    start_ns: int
    end_ns: int
    missing: int


def find_gaps(series: EventSeries, period_ns: int,
              tolerance: float = 1.5) -> List[SampleGap]:
    """Locate dropped-sample windows in a cumulative sample series.

    An inter-sample interval longer than ``period_ns * tolerance``
    means the timer fired (or should have fired) without a sample
    landing — a missed deadline, a paused buffer, or drops.  The
    default tolerance absorbs ordinary fire jitter.

    Consecutive over-threshold intervals describe **one** hole (a
    paused buffer swallows several periods in a row but may still leak
    the odd sample), so adjacent gaps — where one ends on the exact
    sample the next starts from — coalesce into a single
    :class:`SampleGap` with their ``missing`` estimates summed.
    """
    if period_ns <= 0:
        raise ExperimentError("period must be positive")
    if tolerance <= 1.0:
        raise ExperimentError("gap tolerance must exceed 1.0")
    if len(series) < 2:
        return []
    intervals = np.diff(series.timestamps)
    threshold = period_ns * tolerance
    gaps: List[SampleGap] = []
    for index in np.nonzero(intervals > threshold)[0]:
        interval = int(intervals[index])
        # Half-up, not round(): banker's rounding would call an
        # interval of exactly 2.5 periods "2 fires" and report one
        # missing sample where two fire slots actually elapsed.
        missing = max(1, int(interval / period_ns + 0.5) - 1)
        start = int(series.timestamps[index])
        end = int(series.timestamps[index + 1])
        if gaps and gaps[-1].end_ns == start:
            merged = gaps.pop()
            gaps.append(SampleGap(start_ns=merged.start_ns, end_ns=end,
                                  missing=merged.missing + missing))
        else:
            gaps.append(SampleGap(start_ns=start, end_ns=end,
                                  missing=missing))
    return gaps


def deltas_with_gaps(series: EventSeries, period_ns: int,
                     tolerance: float = 1.5
                     ) -> Tuple[EventSeries, List[SampleGap]]:
    """Gap-aware differencing: flag holes instead of interpolating.

    Like :func:`deltas`, but intervals spanning a gap get ``NaN``
    deltas — a delta across a hole mixes several periods' activity
    into one point and would silently flatten bursts.  Callers plot
    around the NaNs (matplotlib breaks the line) or handle the
    returned gap list explicitly.
    """
    flat = deltas(series)
    gaps = find_gaps(series, period_ns, tolerance)
    if not gaps or len(flat) == 0:
        return flat, gaps
    threshold = period_ns * tolerance
    mask = np.diff(series.timestamps) > threshold
    values = {name: data.copy() for name, data in flat.values.items()}
    for data in values.values():
        data[mask] = np.nan
    return EventSeries(flat.timestamps, values), gaps


def resample_counts(series: EventSeries, bucket_ns: int) -> EventSeries:
    """Aggregate per-interval deltas into fixed wall-clock buckets.

    Used to average multiple trials whose sample timestamps don't align
    exactly (jitter), as the paper does for Fig. 4's 10-trial average.
    """
    if bucket_ns <= 0:
        raise ExperimentError("bucket size must be positive")
    if len(series) == 0:
        return series
    start = int(series.timestamps[0])
    buckets = ((series.timestamps - start) // bucket_ns).astype(np.int64)
    count = int(buckets.max()) + 1
    timestamps = start + (np.arange(count, dtype=np.int64) + 1) * bucket_ns
    values: Dict[str, np.ndarray] = {}
    for name, data in series.values.items():
        summed = np.zeros(count, dtype=np.float64)
        np.add.at(summed, buckets, data)
        values[name] = summed
    return EventSeries(timestamps, values)


def moving_average(data: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinkage."""
    if window <= 0:
        raise ExperimentError("window must be positive")
    if window == 1 or len(data) == 0:
        return np.asarray(data, dtype=np.float64)
    kernel = np.ones(window) / window
    padded = np.convolve(data, kernel, mode="same")
    # Correct the edges where the kernel hangs off the array.
    ones = np.convolve(np.ones(len(data)), kernel, mode="same")
    return padded / ones


def average_series(series_list: Sequence[EventSeries],
                   bucket_ns: int) -> EventSeries:
    """Bucket-align several trials' delta series and average them."""
    if not series_list:
        raise ExperimentError("no series to average")
    resampled = [resample_counts(series, bucket_ns) for series in series_list]
    length = max(len(series) for series in resampled)
    names = sorted({name for series in resampled for name in series.values})
    timestamps = np.arange(1, length + 1, dtype=np.int64) * bucket_ns
    values: Dict[str, np.ndarray] = {}
    for name in names:
        stacked = np.zeros((len(resampled), length), dtype=np.float64)
        for row, series in enumerate(resampled):
            data = series.values.get(name)
            if data is not None:
                stacked[row, :len(data)] = data
        values[name] = stacked.mean(axis=0)
    return EventSeries(timestamps, values)
