"""Derived performance metrics.

The quantities the paper reports: MPKI (Misses Per Kilo-Instruction,
§IV-B/C) and GFLOPS (Table I).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ExperimentError


def mpki(misses: float, instructions: float) -> float:
    """Misses per kilo-instruction."""
    if instructions <= 0:
        raise ExperimentError("MPKI undefined for zero instructions")
    return misses / (instructions / 1000.0)


def gflops(flops: float, elapsed_ns: float) -> float:
    """Billions of floating-point operations per second."""
    if elapsed_ns <= 0:
        raise ExperimentError("GFLOPS undefined for zero elapsed time")
    return flops / elapsed_ns  # FLOPs per nanosecond == GFLOPS


def report_mpki(totals: Mapping[str, float],
                miss_event: str = "LLC_MISSES") -> float:
    """MPKI from a tool report's totals dict.

    Requires both the miss event and INST_RETIRED (always present: it
    lives on a fixed counter).
    """
    if miss_event not in totals:
        raise ExperimentError(
            f"totals lack {miss_event}; monitored events were insufficient"
        )
    if "INST_RETIRED" not in totals:
        raise ExperimentError("totals lack INST_RETIRED")
    return mpki(totals[miss_event], totals["INST_RETIRED"])
