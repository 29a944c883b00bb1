"""Distribution statistics for the box-and-whisker comparison (Fig. 8).

The paper normalizes each tool's run times and plots their spread;
K-LEB's box is the tightest, evidencing the least (and most
consistent) interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus whiskers (Tukey 1.5×IQR convention)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    mean: float
    std: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def spread(self) -> float:
        """Whisker-to-whisker width — the figure's visual 'spread'."""
        return self.whisker_high - self.whisker_low


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute box-plot statistics for one population."""
    if len(values) == 0:
        raise ExperimentError("cannot summarize an empty population")
    data = np.asarray(values, dtype=np.float64)
    q1, median, q3 = np.percentile(data, [25, 50, 75])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = data[(data >= low_fence) & (data <= high_fence)]
    if len(inside) == 0:
        inside = data
    return BoxStats(
        minimum=float(data.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(data.max()),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if len(data) > 1 else 0.0,
    )


def mean_or_nan(values: Sequence[float]) -> float:
    """Mean of a population, or NaN when it is empty (every trial was
    quarantined) — numpy returns the same NaN but warns."""
    if len(values) == 0:
        return float("nan")
    return float(np.mean(values))


def normalize(values: Sequence[float], reference: float) -> np.ndarray:
    """Normalize run times to a reference (the baseline mean)."""
    if reference <= 0:
        raise ExperimentError("normalization reference must be positive")
    return np.asarray(values, dtype=np.float64) / reference
