"""Multiplexing accuracy crosscheck — scaled estimates vs ground truth.

Eight matmul-generated events (two rotation groups of four) are
monitored by a multiplexed K-LEB run and compared against ground-truth
full-count runs in which each group owns the counters for the whole
execution.  Sweeping the rotation period turns the cost of
time-multiplexing into a measured curve: the faster the rotation, the
more windows each group samples and the closer the
``count × time_enabled / time_running`` extrapolation lands — the
dominant error source in perf-based measurement that the paper's
K-LEB design avoids by fitting its events into the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments import report
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms, us
from repro.tools.kleb.tool import KLebTool
from repro.tools.sequential import profile_sequentially
from repro.workloads.matmul import TripleLoopMatmul

# Every event the matmul workload generates: two groups of four.
EVENTS = ("LOADS", "STORES", "ARITH_MUL", "FP_OPS",
          "BRANCHES", "BRANCH_MISSES", "LLC_REFERENCES", "LLC_MISSES")
DEFAULT_ROTATION_PERIODS_NS = (ms(2), ms(1), us(500), us(200))


@dataclass
class MultiplexResult:
    """Scaled-estimate error per rotation period."""

    n: int
    period_ns: int
    rotation_periods_ns: Tuple[int, ...]
    truth: Dict[str, float]
    # rotation period -> event -> scaled estimate.
    estimates: Dict[int, Dict[str, float]]
    # rotation period -> event -> |estimate - truth| / truth (percent).
    errors_percent: Dict[int, Dict[str, float]]
    # rotation period -> rotations performed.
    rotations: Dict[int, int]

    def mean_error_percent(self, rotation_ns: int) -> float:
        errors = self.errors_percent[rotation_ns]
        return sum(errors.values()) / len(errors)


def run(n: int = 256, period_ns: int = us(100), seed: int = 0,
        rotation_periods_ns: Sequence[int] = DEFAULT_ROTATION_PERIODS_NS,
        ) -> MultiplexResult:
    """Compare multiplexed estimates against full counts per rotation."""
    # Full counts: each rotation group gets a dedicated run.
    truth = profile_sequentially(TripleLoopMatmul(n), KLebTool, EVENTS,
                                 period_ns=period_ns, seed=seed).totals
    estimates: Dict[int, Dict[str, float]] = {}
    errors: Dict[int, Dict[str, float]] = {}
    rotations: Dict[int, int] = {}
    for rotation_ns in rotation_periods_ns:
        result = run_monitored(
            TripleLoopMatmul(n),
            KLebTool(multiplex_period_ns=rotation_ns),
            events=EVENTS, period_ns=period_ns, seed=seed,
        )
        totals = result.report.totals
        estimates[rotation_ns] = {name: totals[name] for name in EVENTS}
        errors[rotation_ns] = {
            name: (abs(totals[name] - truth[name]) / truth[name] * 100.0
                   if truth[name] else 0.0)
            for name in EVENTS
        }
        rotations[rotation_ns] = int(
            result.report.metadata.get("multiplex_rotations", 0))
    return MultiplexResult(
        n=n,
        period_ns=period_ns,
        rotation_periods_ns=tuple(rotation_periods_ns),
        truth=truth,
        estimates=estimates,
        errors_percent=errors,
        rotations=rotations,
    )


def render(result: MultiplexResult) -> str:
    headers = ["event", "full count"] + [
        f"@{rotation_ns / 1e6:g}ms"
        for rotation_ns in result.rotation_periods_ns
    ]
    rows: List[List[str]] = []
    for name in EVENTS:
        rows.append(
            [name, report.format_count(result.truth[name])]
            + [f"{result.errors_percent[rotation_ns][name]:.3f}%"
               for rotation_ns in result.rotation_periods_ns]
        )
    rows.append(
        ["mean error", ""]
        + [f"{result.mean_error_percent(rotation_ns):.3f}%"
           for rotation_ns in result.rotation_periods_ns]
    )
    rows.append(
        ["rotations", ""]
        + [str(result.rotations[rotation_ns])
           for rotation_ns in result.rotation_periods_ns]
    )
    table = report.text_table(
        headers, rows,
        title=(f"Multiplexed scaled-estimate error vs rotation period "
               f"(matmul n={result.n}, {len(EVENTS)} events, "
               f"{result.period_ns / 1e3:g} us sampling)"),
    )
    best = min(result.rotation_periods_ns, key=result.mean_error_percent)
    worst = max(result.rotation_periods_ns, key=result.mean_error_percent)
    return (
        f"{table}\n\n"
        f"estimates scale raw counts by time_enabled/time_running "
        f"(perf semantics); fixed-counter events are exact by design.\n"
        f"mean error spans {result.mean_error_percent(worst):.3f}% at "
        f"{worst / 1e6:g} ms rotation down to "
        f"{result.mean_error_percent(best):.3f}% at {best / 1e6:g} ms."
    )
