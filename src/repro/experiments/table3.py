"""Table III — overhead on Intel MKL dgemm (<100 ms).

Paper values (100 runs, 10 ms sample rate):

===========  =========
tool         overhead
===========  =========
K-LEB        1.13 %
perf stat    7.64 %
perf record  2.00 %
PAPI         21.40 %  (library-init fixed cost dominates)
LiMiT        n/a      (unsupported OS / kernel for Intel MKL)
===========  =========
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.overhead import summarize_overhead
from repro.experiments.overhead_common import OVERHEAD_EVENTS, collect_tool_runs
from repro.experiments.table2 import OverheadTableResult, render as _render
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.workloads.dgemm import MklDgemm

TOOLS = ("none", "k-leb", "perf-stat", "perf-record", "papi", "limit")


def run(runs: int = 30, n: int = 1180, period_ns: int = ms(10),
        seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> OverheadTableResult:
    """Reproduce Table III.  LiMiT must come back unsupported — Intel
    MKL cannot run on the patched 2.6.32 kernel."""
    program = MklDgemm(n)
    runs_data = collect_tool_runs(
        program, TOOLS, runs=runs, period_ns=period_ns,
        events=OVERHEAD_EVENTS, base_seed=seed,
        machine_config=machine_config, jobs=jobs,
        faults=faults, fault_ledger=fault_ledger,
    )
    baseline = runs_data["none"].wall_ns
    stats = {}
    for name, record in runs_data.items():
        if record.supported and name != "none":
            stats[name] = summarize_overhead(name, record.wall_ns, baseline)
    return OverheadTableResult(
        title=f"Table III — MKL dgemm n={n}",
        stats=stats,
        runs_data=runs_data,
        runs=runs,
        period_ns=period_ns,
    )


def render(result: OverheadTableResult) -> str:
    return _render(result)
