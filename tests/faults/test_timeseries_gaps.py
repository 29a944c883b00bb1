"""Gap-aware time-series analysis: flag holes, don't interpolate."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    EventSeries,
    deltas,
    deltas_with_gaps,
    find_gaps,
)
from repro.errors import ExperimentError

PERIOD = 1_000


def series_with_hole():
    """Samples every 1000 ns with a 4-period hole after t=3000."""
    timestamps = np.array([1000, 2000, 3000, 7000, 8000], dtype=np.int64)
    counts = np.array([10.0, 20.0, 30.0, 70.0, 80.0])
    return EventSeries(timestamps, {"LOADS": counts})


class TestFindGaps:
    def test_detects_the_hole(self):
        gaps = find_gaps(series_with_hole(), PERIOD)
        assert len(gaps) == 1
        gap = gaps[0]
        assert gap.start_ns == 3000 and gap.end_ns == 7000
        assert gap.missing == 3          # fires at 4000, 5000, 6000 lost

    def test_clean_series_has_no_gaps(self):
        timestamps = np.arange(1, 6, dtype=np.int64) * PERIOD
        series = EventSeries(timestamps,
                             {"LOADS": np.arange(5, dtype=np.float64)})
        assert find_gaps(series, PERIOD) == []

    def test_jitter_within_tolerance_ignored(self):
        timestamps = np.array([1000, 2100, 3050, 4120], dtype=np.int64)
        series = EventSeries(timestamps,
                             {"LOADS": np.arange(4, dtype=np.float64)})
        assert find_gaps(series, PERIOD) == []

    def test_short_series_has_no_gaps(self):
        series = EventSeries(np.array([1000], dtype=np.int64),
                             {"LOADS": np.array([1.0])})
        assert find_gaps(series, PERIOD) == []

    def test_invalid_arguments(self):
        with pytest.raises(ExperimentError):
            find_gaps(series_with_hole(), 0)
        with pytest.raises(ExperimentError):
            find_gaps(series_with_hole(), PERIOD, tolerance=1.0)


class TestDeltasWithGaps:
    def test_gap_interval_is_nan_not_interpolated(self):
        flagged, gaps = deltas_with_gaps(series_with_hole(), PERIOD)
        assert len(gaps) == 1
        loads = flagged.event("LOADS")
        # Interval ending at 7000 spans the hole: NaN, never a silent
        # 40-count "sample" smeared over four periods.
        assert np.isnan(loads[2])
        # Clean intervals are untouched.
        np.testing.assert_array_equal(loads[[0, 1, 3]], [10.0, 10.0, 10.0])

    def test_timestamps_match_plain_deltas(self):
        flagged, _ = deltas_with_gaps(series_with_hole(), PERIOD)
        plain = deltas(series_with_hole())
        np.testing.assert_array_equal(flagged.timestamps, plain.timestamps)

    def test_clean_series_equals_plain_deltas(self):
        timestamps = np.arange(1, 6, dtype=np.int64) * PERIOD
        series = EventSeries(
            timestamps, {"LOADS": np.arange(5, dtype=np.float64) * 7}
        )
        flagged, gaps = deltas_with_gaps(series, PERIOD)
        assert gaps == []
        np.testing.assert_array_equal(flagged.event("LOADS"),
                                      deltas(series).event("LOADS"))

    def test_plain_deltas_left_untouched(self):
        """deltas() keeps its historical contract: no NaNs ever."""
        plain = deltas(series_with_hole())
        assert not np.any(np.isnan(plain.event("LOADS")))
