"""Phase detection over event time series.

The paper reads LINPACK's phase structure straight off K-LEB's samples
(Fig. 4): a quiet kernel-level init, a LOAD/STORE-heavy setup, then
repeating load -> compute -> store cycles.  This module recovers those
segments automatically: each interval is labelled by its dominant
event (after normalization), and consecutive same-label intervals are
merged into segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.timeseries import EventSeries, moving_average
from repro.errors import ExperimentError

IDLE = "idle"


@dataclass(frozen=True)
class PhaseSegment:
    """One contiguous run of intervals sharing a dominant event."""

    label: str
    start_index: int
    end_index: int           # exclusive
    start_ns: int
    end_ns: int

    @property
    def length(self) -> int:
        return self.end_index - self.start_index


def dominant_event(interval_values: Dict[str, float],
                   scale: Dict[str, float],
                   idle_threshold: float = 0.05) -> str:
    """Label one interval by its (normalized) dominant event.

    ``scale`` holds each event's peak rate over the whole series, so a
    low-rate event (ARITH_MUL in setup) does not get drowned out by a
    high-rate one (LOADS) purely on magnitude.  Intervals where every
    event sits below ``idle_threshold`` of its peak are labelled idle —
    that is what LINPACK's kernel-level init looks like to a user-only
    monitor.
    """
    best_name = IDLE
    best_value = idle_threshold
    for name, value in interval_values.items():
        peak = scale.get(name, 0.0)
        if peak <= 0:
            continue
        normalized = value / peak
        if normalized > best_value:
            best_value = normalized
            best_name = name
    return best_name


def detect_phases(series: EventSeries, events: Sequence[str],
                  smooth_window: int = 3,
                  idle_threshold: float = 0.05) -> List[PhaseSegment]:
    """Segment a *delta* series into dominant-event phases."""
    if len(series) == 0:
        return []
    missing = [name for name in events if name not in series.values]
    if missing:
        raise ExperimentError(f"series lacks events: {missing}")
    smoothed = {
        name: moving_average(series.values[name], smooth_window)
        for name in events
    }
    scale = {name: float(np.max(data)) for name, data in smoothed.items()}
    labels: List[str] = []
    for index in range(len(series)):
        interval = {name: float(smoothed[name][index]) for name in events}
        labels.append(dominant_event(interval, scale, idle_threshold))
    segments: List[PhaseSegment] = []
    start = 0
    for index in range(1, len(labels) + 1):
        if index == len(labels) or labels[index] != labels[start]:
            segments.append(PhaseSegment(
                label=labels[start],
                start_index=start,
                end_index=index,
                start_ns=int(series.timestamps[start]),
                end_ns=int(series.timestamps[index - 1]),
            ))
            start = index
    return segments


def merge_short_segments(segments: List[PhaseSegment],
                         min_length: int) -> List[PhaseSegment]:
    """Absorb segments shorter than ``min_length`` into their neighbour.

    Jitter produces one-interval blips; the paper's phase reading is
    about the macro structure.
    """
    if not segments:
        return []
    merged: List[PhaseSegment] = [segments[0]]
    for segment in segments[1:]:
        previous = merged[-1]
        if segment.length < min_length:
            merged[-1] = PhaseSegment(
                label=previous.label,
                start_index=previous.start_index,
                end_index=segment.end_index,
                start_ns=previous.start_ns,
                end_ns=segment.end_ns,
            )
        elif previous.length < min_length and len(merged) == 1:
            merged[-1] = PhaseSegment(
                label=segment.label,
                start_index=previous.start_index,
                end_index=segment.end_index,
                start_ns=previous.start_ns,
                end_ns=segment.end_ns,
            )
        elif segment.label == previous.label:
            merged[-1] = PhaseSegment(
                label=previous.label,
                start_index=previous.start_index,
                end_index=segment.end_index,
                start_ns=previous.start_ns,
                end_ns=segment.end_ns,
            )
        else:
            merged.append(segment)
    return merged


def count_cycles(segments: Sequence[PhaseSegment],
                 cycle_labels: Sequence[str]) -> int:
    """Count occurrences of a repeating label pattern (e.g. the
    LINPACK load -> compute -> store cycle)."""
    if not cycle_labels:
        raise ExperimentError("cycle pattern must be non-empty")
    labels = [segment.label for segment in segments]
    pattern = list(cycle_labels)
    count = 0
    index = 0
    while index + len(pattern) <= len(labels):
        if labels[index:index + len(pattern)] == pattern:
            count += 1
            index += len(pattern)
        else:
            index += 1
    return count
