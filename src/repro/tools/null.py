"""The no-profiling baseline ("No profiling" column of Table I)."""

from __future__ import annotations

from typing import Sequence

from repro.kernel.kernel import Kernel
from repro.kernel.process import Task, TaskState
from repro.tools.base import MonitoringTool, SampleColumns, Session, ToolReport


class NullSession(Session):
    def __init__(self, victim: Task, events: Sequence[str],
                 period_ns: int) -> None:
        self.victim = victim
        self.events = list(events)
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        return ToolReport(
            tool="none",
            events=self.events,
            period_ns=self.period_ns,
            samples=SampleColumns(),
            totals={},
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
        )


class NullTool(MonitoringTool):
    """Runs the victim with no monitoring at all."""

    name = "none"

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> NullSession:
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return NullSession(task, events, period_ns)
