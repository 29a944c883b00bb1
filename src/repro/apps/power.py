"""Dynamic power estimation from performance counters.

The paper cites Liu et al. ("Dynamic power estimation with hardware
performance counters support on multi-core platform") as one of the
online decision-making applications that needs exactly what K-LEB
provides: periodic counter samples at low overhead.

The standard technique is an event-energy model: each hardware event
carries an average energy cost (instructions retire through the
pipeline, loads/stores move data through the cache hierarchy, LLC
misses activate DRAM), so interval power is

    P(t) = P_static + sum_e  weight_e * count_e(t) / dt

The default weights are ballpark per-event energies for a Nehalem-class
part; calibrate against a power meter (here: against a known workload)
with :meth:`PowerModel.calibrated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.timeseries import EventSeries
from repro.errors import ExperimentError

# Per-event energy in nanojoules (order-of-magnitude literature values
# for ~45 nm parts: ~0.5 nJ per instruction through the pipeline, tens
# of nJ per DRAM access).
DEFAULT_EVENT_ENERGY_NJ: Dict[str, float] = {
    "INST_RETIRED": 0.45,
    "LOADS": 0.30,
    "STORES": 0.35,
    "ARITH_MUL": 0.25,
    "FP_OPS": 0.20,
    "BRANCH_MISSES": 5.0,    # pipeline flush
    "LLC_REFERENCES": 3.0,
    "LLC_MISSES": 30.0,      # DRAM activate + transfer
}

DEFAULT_STATIC_WATTS = 18.0   # uncore + leakage for a desktop part


@dataclass(frozen=True)
class PowerEstimate:
    """Summary of an estimated power trace."""

    mean_watts: float
    peak_watts: float
    min_watts: float
    energy_joules: float
    duration_s: float


@dataclass
class PowerModel:
    """Linear counter-to-power model."""

    event_energy_nj: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EVENT_ENERGY_NJ)
    )
    static_watts: float = DEFAULT_STATIC_WATTS

    def power_series(self, series: EventSeries) -> np.ndarray:
        """Per-interval power (W) from a *delta* series."""
        if len(series) == 0:
            return np.array([], dtype=np.float64)
        timestamps = series.timestamps
        intervals = np.diff(timestamps, prepend=timestamps[0] - (
            timestamps[1] - timestamps[0] if len(timestamps) > 1 else 1
        )).astype(np.float64)
        intervals[intervals <= 0] = np.nan
        dynamic = np.zeros(len(series), dtype=np.float64)
        for name, weight in self.event_energy_nj.items():
            data = series.values.get(name)
            if data is not None:
                dynamic += weight * data
        watts = self.static_watts + dynamic / intervals
        return np.nan_to_num(watts, nan=self.static_watts)

    def calibrated(self, series: EventSeries,
                   measured_mean_watts: float) -> "PowerModel":
        """Scale the dynamic weights so the model's mean over ``series``
        matches an external measurement (one-point calibration)."""
        estimate = summarize(self.power_series(series), series)
        dynamic_mean = estimate.mean_watts - self.static_watts
        if dynamic_mean <= 0:
            raise ExperimentError("cannot calibrate on an idle trace")
        target_dynamic = measured_mean_watts - self.static_watts
        if target_dynamic <= 0:
            raise ExperimentError(
                "measured power must exceed the static floor"
            )
        scale = target_dynamic / dynamic_mean
        return PowerModel(
            event_energy_nj={name: weight * scale
                             for name, weight in self.event_energy_nj.items()},
            static_watts=self.static_watts,
        )


def summarize(watts: np.ndarray, series: EventSeries) -> PowerEstimate:
    """Aggregate a power trace into a :class:`PowerEstimate`."""
    if len(watts) == 0:
        raise ExperimentError("empty power trace")
    duration_ns = float(series.timestamps[-1] - series.timestamps[0])
    if len(series) > 1:
        mean_interval = duration_ns / (len(series) - 1)
        duration_ns += mean_interval  # include the first interval
    else:
        duration_ns = 1.0
    duration_s = duration_ns / 1e9
    mean_watts = float(watts.mean())
    return PowerEstimate(
        mean_watts=mean_watts,
        peak_watts=float(watts.max()),
        min_watts=float(watts.min()),
        energy_joules=mean_watts * duration_s,
        duration_s=duration_s,
    )


def estimate_power_series(series: EventSeries,
                          model: Optional[PowerModel] = None) -> PowerEstimate:
    """One-call estimate: delta series in, power summary out."""
    model = model if model is not None else PowerModel()
    return summarize(model.power_series(series), series)
