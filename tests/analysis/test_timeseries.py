"""Time-series operations: stacking, deltas, resampling, averaging."""

import numpy as np
import pytest

from repro.analysis.timeseries import (
    EventSeries,
    average_series,
    deltas,
    moving_average,
    resample_counts,
    samples_to_series,
)
from repro.errors import ExperimentError
from repro.tools.base import SampleColumns


def make_samples(values, start=1000, step=100):
    samples = SampleColumns(["LOADS"])
    for index, value in enumerate(values):
        samples.append(start + index * step, [value])
    return samples


class TestSamplesToSeries:
    def test_empty(self):
        series = samples_to_series(SampleColumns())
        assert len(series) == 0

    def test_stacking(self):
        series = samples_to_series(make_samples([10, 30, 60]))
        np.testing.assert_array_equal(series.event("LOADS"), [10, 30, 60])
        np.testing.assert_array_equal(series.timestamps, [1000, 1100, 1200])

    def test_missing_event_raises(self):
        series = samples_to_series(make_samples([1]))
        with pytest.raises(ExperimentError):
            series.event("STORES")


class TestDeltas:
    def test_differences(self):
        series = samples_to_series(make_samples([10, 30, 60]))
        diff = deltas(series)
        np.testing.assert_array_equal(diff.event("LOADS"), [20, 30])
        np.testing.assert_array_equal(diff.timestamps, [1100, 1200])

    def test_single_sample_gives_empty(self):
        diff = deltas(samples_to_series(make_samples([10])))
        assert len(diff) == 0

    def test_wraparound_corrected(self):
        wrap = 1 << 48
        samples = make_samples([wrap - 10, 5], start=0, step=1)
        diff = deltas(samples_to_series(samples))
        assert diff.event("LOADS")[0] == pytest.approx(15)


class TestResample:
    def test_bucket_aggregation(self):
        series = EventSeries(
            timestamps=np.array([100, 200, 300, 400], dtype=np.int64),
            values={"LOADS": np.array([1.0, 2.0, 3.0, 4.0])},
        )
        resampled = resample_counts(series, bucket_ns=200)
        np.testing.assert_array_equal(resampled.event("LOADS"), [3.0, 7.0])

    def test_invalid_bucket(self):
        series = samples_to_series(make_samples([1]))
        with pytest.raises(ExperimentError):
            resample_counts(series, 0)

    def test_empty_series_passthrough(self):
        series = samples_to_series(SampleColumns())
        assert len(resample_counts(series, 100)) == 0


class TestMovingAverage:
    def test_window_one_is_identity(self):
        data = np.array([1.0, 5.0, 2.0])
        np.testing.assert_array_equal(moving_average(data, 1), data)

    def test_constant_series_unchanged(self):
        data = np.ones(10) * 4.0
        np.testing.assert_allclose(moving_average(data, 3), data)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=200)
        smoothed = moving_average(data, 9)
        assert smoothed.std() < data.std()

    def test_invalid_window(self):
        with pytest.raises(ExperimentError):
            moving_average(np.array([1.0]), 0)


class TestAverageSeries:
    def test_two_identical_trials(self):
        trial = deltas(samples_to_series(make_samples([0, 10, 20, 30])))
        averaged = average_series([trial, trial], bucket_ns=100)
        np.testing.assert_allclose(averaged.event("LOADS"),
                                   trial.event("LOADS"))

    def test_average_of_differing_trials(self):
        a = deltas(samples_to_series(make_samples([0, 10, 20])))   # [10, 10]
        b = deltas(samples_to_series(make_samples([0, 30, 70])))   # [30, 40]
        averaged = average_series([a, b], bucket_ns=100)
        np.testing.assert_allclose(averaged.event("LOADS"), [20.0, 25.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ExperimentError):
            average_series([], 100)
