"""Table II — overhead on the triple-nested-loop matrix multiply (~2 s).

Paper values (100 runs, 10 ms sample rate):

===========  =========
tool         overhead
===========  =========
K-LEB        0.68 %
perf stat    6.01 %
perf record  ≈1.65 % (K-LEB is a 58.8 % relative reduction)
PAPI         6.43 %
LiMiT        4.08 %
===========  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.overhead import (
    OverheadStats,
    relative_reduction_percent,
    summarize_overhead,
)
from repro.analysis.stats import mean_or_nan
from repro.experiments import report
from repro.experiments.overhead_common import (
    OVERHEAD_EVENTS,
    ToolRuns,
    collect_tool_runs,
)
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.workloads.matmul import TripleLoopMatmul

TOOLS = ("none", "k-leb", "perf-stat", "perf-record", "papi", "limit")


@dataclass
class OverheadTableResult:
    """Overhead summary per tool (shared by Tables II and III)."""

    title: str
    stats: Dict[str, OverheadStats]
    runs_data: Dict[str, ToolRuns]
    runs: int
    period_ns: int

    @property
    def kleb_vs_next_best_percent(self) -> float:
        """K-LEB's relative overhead reduction vs the next-best tool."""
        others = [
            stat.overhead_mean_percent
            for name, stat in self.stats.items()
            if name not in ("none", "k-leb")
        ]
        return relative_reduction_percent(
            self.stats["k-leb"].overhead_mean_percent, min(others)
        )


def run(runs: int = 30, n: int = 1024, period_ns: int = ms(10),
        seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> OverheadTableResult:
    """Reproduce Table II.  The paper used 100 runs; the default here is
    30 for turnaround — pass ``runs=100`` for the full population."""
    program = TripleLoopMatmul(n)
    runs_data = collect_tool_runs(
        program, TOOLS, runs=runs, period_ns=period_ns,
        events=OVERHEAD_EVENTS, base_seed=seed,
        machine_config=machine_config, jobs=jobs,
        faults=faults, fault_ledger=fault_ledger,
    )
    baseline = runs_data["none"].wall_ns
    stats: Dict[str, OverheadStats] = {}
    for name, record in runs_data.items():
        if record.supported and name != "none":
            stats[name] = summarize_overhead(name, record.wall_ns, baseline)
    return OverheadTableResult(
        title=f"Table II — triple-loop matmul n={n}",
        stats=stats,
        runs_data=runs_data,
        runs=runs,
        period_ns=period_ns,
    )


def render(result: OverheadTableResult) -> str:
    rows = []
    baseline_mean = mean_or_nan(result.runs_data["none"].wall_ns)
    rows.append(["no profiling", f"{baseline_mean / 1e9:.4f}", "-", "-"])
    for name, record in result.runs_data.items():
        if name == "none":
            continue
        if not record.supported:
            rows.append([name, "n/a", "n/a", record.unsupported_reason or ""])
            continue
        stat = result.stats[name]
        rows.append([
            name,
            f"{stat.monitored_mean_ns / 1e9:.4f}",
            report.format_percent(stat.overhead_mean_percent),
            f"±{stat.overhead_std_percent:.2f}",
        ])
    table = report.text_table(
        ["tool", "mean runtime (s)", "overhead", "spread"],
        rows,
        title=f"{result.title} ({result.runs} runs, "
              f"{result.period_ns // 1_000_000} ms rate)",
    )
    reduction = result.kleb_vs_next_best_percent
    return (f"{table}\n\nK-LEB vs next-best tool: "
            f"{reduction:.1f}% relative overhead reduction "
            f"(paper: 58.8%)")
