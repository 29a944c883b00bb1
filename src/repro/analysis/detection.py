"""Cache-anomaly detection from high-frequency samples.

The paper stops short of building a detector ("outside the scope of
this work", §IV-C) but demonstrates the enabling capability: at 100 µs
resolution the Flush+Reload burst is visible *during* execution, unlike
perf's single whole-run sample.  This module implements the obvious
detector the paper gestures at: flag sustained intervals whose LLC
miss-to-reference ratio and per-kilo-instruction miss rate exceed a
baseline envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.timeseries import EventSeries
from repro.errors import ExperimentError


@dataclass(frozen=True)
class AnomalyVerdict:
    """Detector output over one monitored run."""

    anomalous: bool
    first_flag_index: Optional[int]      # first suspicious interval
    first_flag_ns: Optional[int]
    flagged_intervals: int
    total_intervals: int
    peak_mpki: float
    mean_mpki: float


def interval_mpki(series: EventSeries) -> np.ndarray:
    """Per-interval MPKI from a *delta* series."""
    misses = series.event("LLC_MISSES")
    instructions = series.event("INST_RETIRED")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(instructions > 0,
                          misses / (instructions / 1000.0), 0.0)
    return values


def detect_cache_anomaly(series: EventSeries,
                         mpki_threshold: float = 15.0,
                         ratio_threshold: float = 0.6,
                         min_consecutive: int = 3) -> AnomalyVerdict:
    """Flag Flush+Reload-like behaviour in a delta series.

    An interval is suspicious when its MPKI exceeds ``mpki_threshold``
    AND its LLC miss/reference ratio exceeds ``ratio_threshold`` (the
    attack's reloads miss almost every probe line).  A run is anomalous
    once ``min_consecutive`` suspicious intervals occur in a row —
    single-interval spikes are normal phase noise.
    """
    if min_consecutive <= 0:
        raise ExperimentError("min_consecutive must be positive")
    total = len(series)
    if total == 0:
        return AnomalyVerdict(False, None, None, 0, 0, 0.0, 0.0)
    mpki_values = interval_mpki(series)
    references = series.event("LLC_REFERENCES")
    misses = series.event("LLC_MISSES")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(references > 0, misses / references, 0.0)
    suspicious = (mpki_values > mpki_threshold) & (ratios > ratio_threshold)
    flagged = int(suspicious.sum())
    first_index: Optional[int] = None
    run = 0
    for index, flag in enumerate(suspicious):
        run = run + 1 if flag else 0
        if run >= min_consecutive:
            first_index = index - min_consecutive + 1
            break
    return AnomalyVerdict(
        anomalous=first_index is not None,
        first_flag_index=first_index,
        first_flag_ns=(int(series.timestamps[first_index])
                       if first_index is not None else None),
        flagged_intervals=flagged,
        total_intervals=total,
        peak_mpki=float(mpki_values.max()) if total else 0.0,
        mean_mpki=float(mpki_values.mean()) if total else 0.0,
    )
