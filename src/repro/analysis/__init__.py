"""Analysis of performance-counter data.

Pure functions over :class:`~repro.tools.base.ToolReport` objects and
raw sample series: derived metrics (MPKI, GFLOPS), time-series
manipulation, phase detection (the LINPACK load/compute/store cycles),
workload classification, overhead statistics, box-plot statistics
(Fig. 8), cross-tool count accuracy (Fig. 9), and the Meltdown anomaly
detector the paper sketches in §IV-C.
"""

from repro.analysis.metrics import (
    mpki,
    gflops,
    report_mpki,
)
from repro.analysis.timeseries import (
    EventSeries,
    samples_to_series,
    deltas,
    resample_counts,
    moving_average,
)
from repro.analysis.phases import PhaseSegment, detect_phases, dominant_event
from repro.analysis.classify import (
    WorkloadClass,
    classify_mpki,
    MPKI_THRESHOLD,
)
from repro.analysis.overhead import OverheadStats, overhead_percent, summarize_overhead
from repro.analysis.stats import BoxStats, box_stats, normalize
from repro.analysis.accuracy import count_difference_percent, accuracy_matrix
from repro.analysis.detection import AnomalyVerdict, detect_cache_anomaly

__all__ = [
    "mpki",
    "gflops",
    "report_mpki",
    "EventSeries",
    "samples_to_series",
    "deltas",
    "resample_counts",
    "moving_average",
    "PhaseSegment",
    "detect_phases",
    "dominant_event",
    "WorkloadClass",
    "classify_mpki",
    "MPKI_THRESHOLD",
    "OverheadStats",
    "overhead_percent",
    "summarize_overhead",
    "BoxStats",
    "box_stats",
    "normalize",
    "count_difference_percent",
    "accuracy_matrix",
    "AnomalyVerdict",
    "detect_cache_anomaly",
]
