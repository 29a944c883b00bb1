"""Contention-aware workload co-location.

The paper cites Torres et al. (§I, §II-C, §IV-B): counter data lets a
scheduler "colocate computation-intensive programs or containers with
the memory-intensive ones on the same core, while scheduling the
programs that require the same type of resources on different cores".

:func:`plan_colocation` is the scheduling policy: given per-workload
MPKI measurements (e.g. from the Fig. 5 experiment), pair the most
memory-intensive workload with the most computation-intensive one.
:func:`repro.kernel.smp.corun_parallel` measures the contention such a
pairing avoids on a shared-LLC cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.classify import MPKI_THRESHOLD
from repro.errors import ExperimentError


@dataclass(frozen=True)
class ColocationPlan:
    """Pairings produced by the MPKI-complementarity policy."""

    pairs: List[Tuple[str, str]]          # (memory-heavy, compute-heavy)
    unpaired: List[str]
    mpki: Dict[str, float]

    def describe(self) -> str:
        lines = []
        for core, (memory_side, compute_side) in enumerate(self.pairs):
            lines.append(
                f"core {core}: {memory_side} "
                f"(MPKI {self.mpki[memory_side]:.1f}) + {compute_side} "
                f"(MPKI {self.mpki[compute_side]:.1f})"
            )
        if self.unpaired:
            lines.append(f"unpaired: {', '.join(self.unpaired)}")
        return "\n".join(lines)


def plan_colocation(mpki: Dict[str, float]) -> ColocationPlan:
    """Pair complementary workloads: highest MPKI with lowest MPKI.

    The policy the paper's §IV-B sketches: never put two
    memory-intensive workloads on the same core.
    """
    if not mpki:
        raise ExperimentError("no measurements to plan from")
    ordered = sorted(mpki, key=mpki.__getitem__)   # low -> high
    pairs: List[Tuple[str, str]] = []
    low_index, high_index = 0, len(ordered) - 1
    while low_index < high_index:
        compute_side = ordered[low_index]
        memory_side = ordered[high_index]
        pairs.append((memory_side, compute_side))
        low_index += 1
        high_index -= 1
    unpaired = [ordered[low_index]] if low_index == high_index else []
    return ColocationPlan(pairs=pairs, unpaired=unpaired, mpki=dict(mpki))


def validate_plan(plan: ColocationPlan,
                  threshold: float = MPKI_THRESHOLD) -> List[str]:
    """Return violations: pairs where both sides are memory-intensive."""
    violations = []
    for memory_side, compute_side in plan.pairs:
        if (plan.mpki[memory_side] > threshold
                and plan.mpki[compute_side] > threshold):
            violations.append(f"{memory_side}+{compute_side}")
    return violations
