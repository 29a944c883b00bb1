"""Classification, overhead, box stats, accuracy, detection."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    accuracy_matrix,
    count_difference_percent,
    worst_difference,
)
from repro.analysis.classify import (
    MPKI_THRESHOLD,
    WorkloadClass,
    classify_mpki,
)
from repro.analysis.detection import detect_cache_anomaly, interval_mpki
from repro.analysis.metrics import report_mpki
from repro.analysis.overhead import (
    overhead_percent,
    relative_reduction_percent,
    summarize_overhead,
)
from repro.analysis.stats import box_stats, normalize
from repro.analysis.timeseries import EventSeries
from repro.errors import ExperimentError
from repro.tools.base import SampleColumns, ToolReport


class TestClassify:
    def test_threshold_is_ten(self):
        assert MPKI_THRESHOLD == 10.0

    def test_below_threshold_compute(self):
        assert classify_mpki(7.5) is WorkloadClass.COMPUTATION_INTENSIVE

    def test_above_threshold_memory(self):
        assert classify_mpki(18.0) is WorkloadClass.MEMORY_INTENSIVE

    def test_exactly_ten_is_compute(self):
        # Muralidhara: "higher than 10" means memory-intensive.
        assert classify_mpki(10.0) is WorkloadClass.COMPUTATION_INTENSIVE

    def test_classify_totals(self):
        totals = {"LLC_MISSES": 27_530.0, "INST_RETIRED": 1_000_000.0}
        assert (classify_mpki(report_mpki(totals))
                is WorkloadClass.MEMORY_INTENSIVE)


class TestOverhead:
    def test_overhead_percent(self):
        assert overhead_percent(1.0068e9, 1.0e9) == pytest.approx(0.68)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            overhead_percent(1, 0)

    def test_summarize(self):
        stats = summarize_overhead("k-leb",
                                   monitored_ns=[1.01e9, 1.02e9, 1.03e9],
                                   baseline_ns=[1.0e9, 1.0e9])
        assert stats.tool == "k-leb"
        assert stats.runs == 3
        assert stats.overhead_mean_percent == pytest.approx(2.0)
        assert stats.overhead_std_percent > 0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ExperimentError):
            summarize_overhead("x", [], [1.0])

    def test_relative_reduction_matches_paper_math(self):
        # K-LEB 0.68% vs perf record 1.65% -> 58.8% reduction.
        assert relative_reduction_percent(0.68, 1.65) == pytest.approx(
            58.8, abs=0.3
        )


class TestBoxStats:
    def test_five_number_summary(self):
        stats = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.q1 == 2.0
        assert stats.q3 == 4.0

    def test_outlier_excluded_from_whiskers(self):
        values = [1.0] * 10 + [1.01] * 10 + [5.0]  # 5.0 is an outlier
        stats = box_stats(values)
        assert stats.maximum == 5.0
        assert stats.whisker_high < 5.0

    def test_spread(self):
        stats = box_stats([1.0, 1.1, 1.2])
        assert stats.spread == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            box_stats([])

    def test_normalize(self):
        np.testing.assert_allclose(normalize([2.0, 4.0], 2.0), [1.0, 2.0])

    def test_normalize_invalid_reference(self):
        with pytest.raises(ExperimentError):
            normalize([1.0], 0.0)


def make_report(tool, totals):
    return ToolReport(tool=tool, events=list(totals), period_ns=0,
                      samples=SampleColumns(), totals=totals, victim_wall_ns=0,
                      victim_pid=0)


class TestAccuracy:
    def test_difference_percent(self):
        assert count_difference_percent(1000, 1003) == pytest.approx(0.3)

    def test_zero_reference(self):
        assert count_difference_percent(0, 0) == 0.0
        assert count_difference_percent(0, 5) == float("inf")

    def test_matrix(self):
        reports = {
            "k-leb": make_report("k-leb", {"LOADS": 1000.0}),
            "papi": make_report("papi", {"LOADS": 1002.0}),
        }
        matrix = accuracy_matrix(reports, ["LOADS"])
        assert matrix["papi"]["LOADS"] == pytest.approx(0.2)
        assert "k-leb" not in matrix

    def test_matrix_missing_event_raises(self):
        reports = {
            "k-leb": make_report("k-leb", {"LOADS": 1.0}),
            "papi": make_report("papi", {}),
        }
        with pytest.raises(ExperimentError):
            accuracy_matrix(reports, ["LOADS"])

    def test_matrix_missing_reference_raises(self):
        with pytest.raises(ExperimentError):
            accuracy_matrix({}, ["LOADS"], reference_tool="k-leb")

    def test_worst_difference(self):
        matrix = {"a": {"x": 0.1, "y": 0.5}, "b": {"x": 0.2}}
        assert worst_difference(matrix) == 0.5


def make_delta_series(misses, references, instructions):
    count = len(misses)
    return EventSeries(
        timestamps=np.arange(1, count + 1, dtype=np.int64) * 100_000,
        values={
            "LLC_MISSES": np.asarray(misses, dtype=np.float64),
            "LLC_REFERENCES": np.asarray(references, dtype=np.float64),
            "INST_RETIRED": np.asarray(instructions, dtype=np.float64),
        },
    )


class TestDetection:
    def test_quiet_series_not_anomalous(self):
        series = make_delta_series(
            misses=[5] * 20, references=[100] * 20,
            instructions=[10_000] * 20,
        )
        verdict = detect_cache_anomaly(series)
        assert not verdict.anomalous
        assert verdict.first_flag_index is None

    def test_sustained_burst_flagged(self):
        misses = [5] * 5 + [300] * 10 + [5] * 5
        references = [100] * 5 + [330] * 10 + [100] * 5
        instructions = [10_000] * 20
        verdict = detect_cache_anomaly(
            make_delta_series(misses, references, instructions)
        )
        assert verdict.anomalous
        assert verdict.first_flag_index == 5
        assert verdict.first_flag_ns == 600_000

    def test_single_spike_ignored(self):
        misses = [5] * 10 + [300] + [5] * 10
        references = [100] * 10 + [330] + [100] * 10
        instructions = [10_000] * 21
        verdict = detect_cache_anomaly(
            make_delta_series(misses, references, instructions)
        )
        assert not verdict.anomalous
        assert verdict.flagged_intervals == 1

    def test_high_mpki_low_ratio_not_flagged(self):
        """High miss count but low miss/ref ratio is a streaming phase,
        not Flush+Reload."""
        misses = [300] * 20
        references = [3000] * 20
        instructions = [10_000] * 20
        verdict = detect_cache_anomaly(
            make_delta_series(misses, references, instructions)
        )
        assert not verdict.anomalous

    def test_interval_mpki(self):
        series = make_delta_series([10], [20], [1000])
        np.testing.assert_allclose(interval_mpki(series), [10.0])

    def test_empty_series(self):
        series = EventSeries(np.array([], dtype=np.int64), {})
        verdict = detect_cache_anomaly(series)
        assert not verdict.anomalous
        assert verdict.total_intervals == 0

    def test_invalid_min_consecutive(self):
        series = make_delta_series([1], [1], [1])
        with pytest.raises(ExperimentError):
            detect_cache_anomaly(series, min_consecutive=0)

    def test_flagged_fraction(self):
        misses = [300] * 5 + [5] * 5
        references = [330] * 5 + [100] * 5
        verdict = detect_cache_anomaly(
            make_delta_series(misses, references, [10_000] * 10)
        )
        assert verdict.flagged_intervals == 5
        assert verdict.total_intervals == 10
