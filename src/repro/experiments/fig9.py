"""Fig. 9 — hardware event count differences across collection tools.

The paper compares each tool's reported counts on *architectural*
(deterministic) events — Branch, Load, Store, Instructions retired —
and finds:

* K-LEB vs perf stat: < 0.0008 % on deterministic events;
* perf record vs K-LEB: < 0.15 % (sampling reconstruction loses the
  tail after the last sample);
* every tool pair, every compared event: < 0.3 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.accuracy import accuracy_matrix, worst_difference
from repro.errors import ToolUnsupportedError
from repro.experiments import report
from repro.experiments.runner import run_monitored
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.tools.base import ToolReport
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul

TOOLS = ("k-leb", "perf-stat", "perf-record", "papi", "limit")
# Architectural events (plus the fixed-counter instruction count).
COMPARED_EVENTS = ("BRANCHES", "LOADS", "STORES", "INST_RETIRED")
MONITORED_EVENTS = ("BRANCHES", "LOADS", "STORES", "ARITH_MUL")


@dataclass
class Fig9Result:
    """Count-deviation matrix vs the K-LEB reference."""

    matrix: Dict[str, Dict[str, float]]     # tool -> event -> |diff| %
    reports: Dict[str, ToolReport]
    skipped: Dict[str, str]                 # tool -> unsupported reason
    worst_percent: float
    n: int
    period_ns: int


def run(n: int = 1024, period_ns: int = ms(10), seed: int = 0,
        machine_config: Optional[MachineConfig] = None) -> Fig9Result:
    """Reproduce Fig. 9 on the triple-loop matmul."""
    program = TripleLoopMatmul(n)
    reports: Dict[str, ToolReport] = {}
    skipped: Dict[str, str] = {}
    for name in TOOLS:
        try:
            result = run_monitored(
                program, create_tool(name), events=MONITORED_EVENTS,
                period_ns=period_ns, seed=seed,
                machine_config=machine_config,
            )
        except ToolUnsupportedError as error:
            skipped[name] = str(error)
            continue
        reports[name] = result.report
    matrix = accuracy_matrix(reports, COMPARED_EVENTS,
                             reference_tool="k-leb")
    return Fig9Result(
        matrix=matrix,
        reports=reports,
        skipped=skipped,
        worst_percent=worst_difference(matrix),
        n=n,
        period_ns=period_ns,
    )


def render(result: Fig9Result) -> str:
    rows: List[List[str]] = []
    for tool, row in result.matrix.items():
        rows.append([tool] + [f"{row[event]:.5f}" for event in COMPARED_EVENTS])
    for tool, reason in result.skipped.items():
        rows.append([tool] + ["n/a"] * len(COMPARED_EVENTS))
    table = report.text_table(
        ["tool vs k-leb"] + [f"{event} (%)" for event in COMPARED_EVENTS],
        rows,
        title=f"Fig. 9 — count difference vs K-LEB (matmul n={result.n})",
    )
    return (f"{table}\n\nworst deviation: {result.worst_percent:.5f}% "
            "(paper: < 0.3% across all tools and events)")
