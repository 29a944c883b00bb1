"""Property tests for gap-aware time-series analysis.

``find_gaps``/``deltas_with_gaps`` sit between the fault-injection
machinery and every figure the analysis layer draws, so their contract
is pinned property-style: NaNs land exactly on over-threshold
intervals and nowhere else, coalesced gaps tile the over-threshold
intervals without overlap, and degenerate series (empty, single
sample) never crash or invent gaps.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.timeseries import (
    EventSeries,
    SampleGap,
    deltas,
    deltas_with_gaps,
    find_gaps,
)

PERIOD = 1_000
TOLERANCE = 1.5

# Interval mixes: mostly on-period samples, some jittered, some holes
# spanning several periods — plus extremes (1 ns, 50 periods).
_INTERVALS = st.lists(
    st.one_of(
        st.integers(PERIOD - 200, PERIOD + 200),    # healthy + jitter
        st.integers(1, PERIOD // 2),                # early/bunched
        st.integers(2 * PERIOD, 5 * PERIOD),        # short holes
        st.integers(10 * PERIOD, 50 * PERIOD),      # long holes
    ),
    max_size=60,
)


def _series(intervals):
    timestamps = np.cumsum([PERIOD] + list(intervals)).astype(np.int64)
    counts = np.arange(len(timestamps), dtype=np.float64) * 3.0
    return EventSeries(timestamps, {"LOADS": counts})


class TestFindGapsProperties:
    @given(_INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_gaps_tile_over_threshold_intervals_exactly(self, intervals):
        series = _series(intervals)
        gaps = find_gaps(series, PERIOD, TOLERANCE)
        threshold = PERIOD * TOLERANCE
        over = [
            (int(series.timestamps[i]), int(series.timestamps[i + 1]))
            for i in range(len(series) - 1)
            if series.timestamps[i + 1] - series.timestamps[i] > threshold
        ]
        # Every over-threshold interval falls inside exactly one gap,
        # and gaps contain nothing else.
        covered = []
        for gap in gaps:
            inside = [span for span in over
                      if gap.start_ns <= span[0] and span[1] <= gap.end_ns]
            assert inside, f"gap {gap} covers no over-threshold interval"
            covered.extend(inside)
        assert sorted(covered) == sorted(over)
        assert len(covered) == len(set(covered))

    @given(_INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_gaps_are_ordered_disjoint_and_non_adjacent(self, intervals):
        gaps = find_gaps(_series(intervals), PERIOD, TOLERANCE)
        for left, right in zip(gaps, gaps[1:]):
            # Strictly ordered, never touching: touching gaps would
            # have been coalesced into one.
            assert left.end_ns < right.start_ns
        for gap in gaps:
            assert gap.end_ns > gap.start_ns
            assert gap.missing >= 1

    @given(_INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_missing_counts_approximate_elapsed_periods(self, intervals):
        gaps = find_gaps(_series(intervals), PERIOD, TOLERANCE)
        for gap in gaps:
            # A hole of N periods hides about N-1 fires; coalescing
            # sums per-interval estimates, so bound rather than pin.
            assert gap.missing <= (gap.end_ns - gap.start_ns) / PERIOD
            assert gap.missing >= 1

    def test_half_up_rounding_of_missing(self):
        # Exactly 2.5 periods elapsed: two fire slots (at +1 and +2
        # periods) were missed.  Banker's rounding would report 1.
        series = EventSeries(
            np.array([PERIOD, PERIOD + 2_500], dtype=np.int64),
            {"LOADS": np.array([0.0, 1.0])},
        )
        (gap,) = find_gaps(series, PERIOD, TOLERANCE)
        assert gap.missing == 2

    def test_adjacent_gaps_coalesce_into_one_hole(self):
        # Two consecutive over-threshold intervals sharing the middle
        # sample: one pause that leaked a single sample mid-hole.
        series = EventSeries(
            np.array([1_000, 2_000, 6_000, 10_000, 11_000],
                     dtype=np.int64),
            {"LOADS": np.arange(5, dtype=np.float64)},
        )
        gaps = find_gaps(series, PERIOD, TOLERANCE)
        assert gaps == [SampleGap(start_ns=2_000, end_ns=10_000,
                                  missing=6)]

    def test_non_adjacent_gaps_stay_separate(self):
        series = EventSeries(
            np.array([1_000, 5_000, 6_000, 10_000], dtype=np.int64),
            {"LOADS": np.arange(4, dtype=np.float64)},
        )
        gaps = find_gaps(series, PERIOD, TOLERANCE)
        assert [(gap.start_ns, gap.end_ns) for gap in gaps] == \
            [(1_000, 5_000), (6_000, 10_000)]


class TestDeltasWithGapsProperties:
    @given(_INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_nan_exactly_on_over_threshold_intervals(self, intervals):
        series = _series(intervals)
        flagged, _ = deltas_with_gaps(series, PERIOD, TOLERANCE)
        plain = deltas(series)
        threshold = PERIOD * TOLERANCE
        over = np.diff(series.timestamps) > threshold
        loads = flagged.event("LOADS")
        np.testing.assert_array_equal(np.isnan(loads), over)
        # Clean intervals are bit-identical to the plain differencing.
        np.testing.assert_array_equal(loads[~over],
                                      plain.event("LOADS")[~over])
        np.testing.assert_array_equal(flagged.timestamps,
                                      plain.timestamps)

    @given(_INTERVALS)
    @settings(max_examples=200, deadline=None)
    def test_nan_count_matches_gap_coverage(self, intervals):
        series = _series(intervals)
        flagged, gaps = deltas_with_gaps(series, PERIOD, TOLERANCE)
        nan_count = int(np.isnan(flagged.event("LOADS")).sum())
        # Each gap covers >= 1 flagged interval; together they cover
        # all of them.
        assert len(gaps) <= nan_count
        covered = sum(
            1 for i in range(len(series) - 1)
            if any(gap.start_ns <= series.timestamps[i]
                   and series.timestamps[i + 1] <= gap.end_ns
                   for gap in gaps)
        )
        assert covered == nan_count

    def test_empty_series(self):
        empty = EventSeries(np.array([], dtype=np.int64), {})
        assert find_gaps(empty, PERIOD) == []
        flagged, gaps = deltas_with_gaps(empty, PERIOD)
        assert len(flagged) == 0 and gaps == []

    def test_single_sample_series(self):
        single = EventSeries(np.array([5_000], dtype=np.int64),
                             {"LOADS": np.array([7.0])})
        assert find_gaps(single, PERIOD) == []
        flagged, gaps = deltas_with_gaps(single, PERIOD)
        assert gaps == []
        assert len(flagged) == 0
        assert list(flagged.values) == ["LOADS"]  # names survive
