"""Counter-driven power estimation."""

import numpy as np
import pytest

from repro.analysis.timeseries import EventSeries
from repro.apps.power import (
    DEFAULT_STATIC_WATTS,
    PowerModel,
    estimate_power_series,
    summarize,
)
from repro.errors import ExperimentError


def make_series(inst_per_interval, misses_per_interval, count=10,
                interval_ns=1_000_000):
    timestamps = np.arange(1, count + 1, dtype=np.int64) * interval_ns
    return EventSeries(
        timestamps=timestamps,
        values={
            "INST_RETIRED": np.full(count, float(inst_per_interval)),
            "LLC_MISSES": np.full(count, float(misses_per_interval)),
        },
    )


class TestIntervalPower:
    """The event-energy model, one interval at a time."""

    def test_static_floor(self):
        watts = PowerModel().power_series(make_series(0, 0))
        assert np.all(watts == DEFAULT_STATIC_WATTS)

    def test_activity_adds_power(self):
        model = PowerModel()
        idle = model.power_series(make_series(0, 0))
        busy = model.power_series(make_series(2.5e6, 0))
        assert np.all(busy > idle)

    def test_known_arithmetic(self):
        model = PowerModel(event_energy_nj={"INST_RETIRED": 1.0},
                           static_watts=10.0)
        # 1e6 instructions x 1 nJ over 1 ms = 1 mJ / 1 ms = 1 W dynamic.
        watts = model.power_series(make_series(1e6, 0))
        assert watts == pytest.approx(np.full(10, 11.0))

    def test_invalid_interval(self):
        # A repeated timestamp is a zero-length interval: it reads the
        # static floor instead of dividing by zero.
        series = EventSeries(
            np.array([1_000_000, 1_000_000], dtype=np.int64),
            {"INST_RETIRED": np.array([1e6, 1e6])})
        model = PowerModel(event_energy_nj={"INST_RETIRED": 1.0},
                           static_watts=10.0)
        assert model.power_series(series)[1] == 10.0

    def test_unknown_events_ignored(self):
        model = PowerModel(event_energy_nj={"INST_RETIRED": 1.0})
        series = EventSeries(
            np.arange(1, 4, dtype=np.int64) * 1_000_000,
            {"MYSTERY": np.full(3, 1e9)})
        assert np.all(model.power_series(series) == model.static_watts)


class TestPowerSeries:
    def test_memory_phase_draws_more_power(self):
        model = PowerModel()
        compute = make_series(inst_per_interval=2.5e6, misses_per_interval=0)
        memory = make_series(inst_per_interval=1e6,
                             misses_per_interval=50_000)
        assert model.power_series(memory).mean() > \
            model.power_series(compute).mean()

    def test_empty_series(self):
        empty = EventSeries(np.array([], dtype=np.int64), {})
        assert len(PowerModel().power_series(empty)) == 0

    def test_estimate_summary(self):
        series = make_series(2e6, 1000, count=20)
        estimate = estimate_power_series(series)
        assert estimate.min_watts <= estimate.mean_watts <= estimate.peak_watts
        assert estimate.duration_s == pytest.approx(0.020, rel=0.01)
        assert estimate.energy_joules == pytest.approx(
            estimate.mean_watts * estimate.duration_s
        )

    def test_summarize_empty_rejected(self):
        empty = EventSeries(np.array([], dtype=np.int64), {})
        with pytest.raises(ExperimentError):
            summarize(np.array([]), empty)


class TestCalibration:
    def test_calibrated_model_matches_measurement(self):
        series = make_series(2e6, 5_000, count=30)
        base = PowerModel()
        calibrated = base.calibrated(series, measured_mean_watts=45.0)
        estimate = estimate_power_series(series, calibrated)
        assert estimate.mean_watts == pytest.approx(45.0, rel=0.01)

    def test_static_unchanged_by_calibration(self):
        series = make_series(2e6, 5_000)
        calibrated = PowerModel().calibrated(series, 45.0)
        assert calibrated.static_watts == DEFAULT_STATIC_WATTS

    def test_calibration_below_static_rejected(self):
        series = make_series(2e6, 5_000)
        with pytest.raises(ExperimentError):
            PowerModel().calibrated(series, DEFAULT_STATIC_WATTS - 1)


class TestEndToEnd:
    def test_linpack_power_tracks_phases(self):
        """The quiet init phase must draw less than the solve phase."""
        from repro.analysis.timeseries import deltas, samples_to_series
        from repro.experiments.runner import run_monitored
        from repro.sim.clock import ms
        from repro.tools.registry import create_tool
        from repro.workloads.linpack import LinpackWorkload

        result = run_monitored(
            LinpackWorkload(2500), create_tool("k-leb"),
            events=("LOADS", "STORES", "ARITH_MUL", "LLC_MISSES"),
            period_ns=ms(10), seed=0,
        )
        series = deltas(samples_to_series(result.report.samples))
        watts = PowerModel().power_series(series)
        quiet = watts[:5].mean()       # kernel-level init: user counters idle
        busy = watts[len(watts) // 2:].mean()
        assert busy > quiet + 1.0
