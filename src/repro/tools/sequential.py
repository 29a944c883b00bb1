"""Sequential-runs profiling: many events without multiplexing.

Paper §VI: the counter registers limit how many events one run can
monitor precisely.  "Normally this is solved by using sequential runs
for profiling (e.g., one run measures events A, B, C and D while the
next measures events W, X, Y and Z); however, this methodology proves
difficult when trying to perform online or runtime analysis."

This module implements that offline methodology: split the event list
into the groups the counter scheduler places
(:func:`repro.hw.schedule.plan_groups`), run the program once per
group under any monitoring tool, and merge the totals.  Every run uses
the campaign's one seed, so every group counts the same execution and
the merged totals are *precise* — unlike perf's multiplexed estimates —
at the cost of N complete executions, which is exactly the trade-off
the paper describes.  The multiplexing crosscheck
(:mod:`repro.experiments.multiplex`) takes its ground truth from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ToolError
from repro.hw import schedule
from repro.hw.machine import MachineConfig
from repro.experiments.runner import TrialSummary, run_monitored, summarize_trial
from repro.tools.base import MonitoringTool
from repro.workloads.base import Program

ToolFactory = Callable[[], MonitoringTool]


@dataclass
class SequentialProfile:
    """Merged result of one sequential profiling campaign."""

    tool: str
    events: List[str]
    totals: Dict[str, float]
    runs: List[TrialSummary] = field(default_factory=list)
    groups: List[List[str]] = field(default_factory=list)


def profile_sequentially(program: Program, tool_factory: ToolFactory,
                         events: Sequence[str],
                         period_ns: int = 10_000_000,
                         seed: int = 0,
                         machine_config: Optional[MachineConfig] = None,
                         ) -> SequentialProfile:
    """Monitor ``events`` over as many runs as the counters require.

    The runs are :func:`~repro.hw.schedule.plan_groups`' groups, so
    each run's events fit the counters their masks allow.  Each run
    uses a fresh tool from ``tool_factory`` and a fresh system seeded
    with ``seed``: every group sees the same execution, so a stochastic
    event's total is the one a single run of its group would count.
    Fixed-counter events (INST_RETIRED, cycles) ride with the first
    run, and a request made only of them takes one run.  Raises
    :class:`ToolError` for an empty event list.
    """
    if not events:
        raise ToolError("sequential profiling needs at least one event")
    unique = list(dict.fromkeys(events))
    plan = schedule.plan_groups(unique)
    groups = [list(group.names) for group in plan.groups] or [[]]
    groups[0][:0] = [name for name, _ in plan.fixed]
    totals: Dict[str, float] = {}
    runs: List[TrialSummary] = []
    for index, group in enumerate(groups):
        result = run_monitored(
            program, tool_factory(), events=group, period_ns=period_ns,
            seed=seed, machine_config=machine_config,
        )
        runs.append(summarize_trial(result, trial=index, seed=seed))
        for name, value in result.report.totals.items():
            if name in group or (index == 0 and name not in totals):
                totals[name] = value
    return SequentialProfile(
        tool=runs[0].report.tool,
        events=unique,
        totals=totals,
        runs=runs,
        groups=groups,
    )
