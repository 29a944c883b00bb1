"""Table I — LINPACK GFLOPS across profiling tools.

Paper values (10 trials, problem size 5000, 10 ms sample rate):

=============  ============  ======  =========  ===========
tool           No profiling  K-LEB   perf stat  perf record
=============  ============  ======  =========  ===========
GFLOPS         37.24         37.00   34.78      36.89
loss (%)       0             0.64    7.08       0.96
=============  ============  ======  =========  ===========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.stats import mean_or_nan
from repro.experiments import report
from repro.experiments.runner import run_trials
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.linpack import LinpackWorkload, measured_gflops

TOOLS = ("none", "k-leb", "perf-stat", "perf-record")
EVENTS = ("ARITH_MUL", "LOADS", "STORES")


@dataclass
class Table1Result:
    """GFLOPS and performance loss per tool."""

    gflops: Dict[str, float]
    loss_percent: Dict[str, float]
    trials: int
    problem_size: int
    period_ns: int


def run(trials: int = 10, problem_size: int = 5000,
        period_ns: int = ms(10), seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> Table1Result:
    """Reproduce Table I."""
    program = LinpackWorkload(problem_size)
    gflops: Dict[str, float] = {}
    for name in TOOLS:
        results = run_trials(
            program, create_tool(name), runs=trials, events=EVENTS,
            period_ns=period_ns, base_seed=seed,
            machine_config=machine_config, jobs=jobs,
            faults=faults, fault_ledger=fault_ledger,
        )
        gflops[name] = mean_or_nan([
            measured_gflops(result) for result in results
        ])
    baseline = gflops["none"]
    loss = {
        name: 100.0 * (baseline - value) / baseline
        for name, value in gflops.items()
    }
    return Table1Result(
        gflops=gflops,
        loss_percent=loss,
        trials=trials,
        problem_size=problem_size,
        period_ns=period_ns,
    )


def render(result: Table1Result) -> str:
    """Paper-style rows: GFLOPS and performance loss per tool."""
    headers = ["Profiling Tools"] + [_label(name) for name in TOOLS]
    rows: List[List[str]] = [
        ["GFlops"] + [f"{result.gflops[name]:.2f}" for name in TOOLS],
        ["Performance Loss (%)"] + [
            f"{result.loss_percent[name]:.2f}" for name in TOOLS
        ],
    ]
    return report.text_table(
        headers, rows,
        title=(f"Table I — LINPACK (n={result.problem_size}, "
               f"{result.trials} trials, {result.period_ns // 1_000_000} ms rate)"),
    )


def _label(name: str) -> str:
    return {
        "none": "No profiling",
        "k-leb": "K-LEB",
        "perf-stat": "Perf stat",
        "perf-record": "Perf record",
    }.get(name, name)
