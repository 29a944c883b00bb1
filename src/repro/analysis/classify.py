"""Workload classification by memory intensity.

The paper applies the Muralidhara et al. (MICRO'11) rule to Docker
images (§IV-B): MPKI above 10 means memory-intensive; below,
computation-intensive.  Schedulers can use the classes to co-locate
complementary workloads (§IV-B's scheduling discussion).
"""

from __future__ import annotations

import enum

MPKI_THRESHOLD = 10.0


class WorkloadClass(enum.Enum):
    """Muralidhara memory-intensity classes."""

    COMPUTATION_INTENSIVE = "computation-intensive"
    MEMORY_INTENSIVE = "memory-intensive"


def classify_mpki(value: float,
                  threshold: float = MPKI_THRESHOLD) -> WorkloadClass:
    """Classify a measured MPKI value."""
    if value > threshold:
        return WorkloadClass.MEMORY_INTENSIVE
    return WorkloadClass.COMPUTATION_INTENSIVE
