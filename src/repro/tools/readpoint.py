"""Read-point instrumentation: the one path PAPI and LiMiT share.

Both tools compile counter reads into the victim, one per estimated
sample period (§IV), and differ only in how a read reaches the
counters.  A tool names its costs and its three block sequences
(prologue, read point, epilogue); the runtime, the rewritten program,
the start/read/log/stop handlers, the session and ``attach`` are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ToolError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Task, TaskState
from repro.tools import costs
from repro.tools.base import (
    CounterGate,
    MonitoringTool,
    SampleColumns,
    Session,
    ToolReport,
)
from repro.workloads.base import Block, BlockInserter, Program

DEFAULT_FREQUENCY_HZ = 2.67e9


@dataclass
class ReadPointRuntime:
    """State shared between the instrumented blocks and the session;
    the handlers are the bodies of the tool's start/read/log/stop."""

    tool: "ReadPointTool"
    events: List[str]
    gate: Optional[CounterGate] = None
    samples: SampleColumns = field(default_factory=SampleColumns)
    totals: Dict[str, float] = field(default_factory=dict)
    cost_factor: float = 1.0
    read_points: int = 0

    def require_gate(self) -> CounterGate:
        if self.gate is None:
            raise ToolError(
                f"{self.tool.label} instrumentation ran before attach()"
            )
        return self.gate

    def start(self, kernel: Kernel, task: Task):
        self.require_gate().arm()
        return True

    def read(self, kernel: Kernel, task: Task):
        kernel.charge_kernel_time(int(
            len(self.events) * self.tool.read_syscall_ns_per_event
            * self.cost_factor
        ))
        row = self.require_gate().row()
        self.samples.append(kernel.now, row)
        self.read_points += 1
        return row

    def log(self, kernel: Kernel, task: Task):
        kernel.charge_kernel_time(int(
            self.tool.log_kernel_ns * self.cost_factor
        ))
        return True

    def stop(self, kernel: Kernel, task: Task):
        gate = self.require_gate()
        gate.disarm()
        self.totals = {
            name: float(value)
            for name, value in (gate.final_snapshot or {}).items()
        }
        return self.totals


class ReadPointProgram(Program):
    """A victim program rebuilt with one tool's read points."""

    def __init__(self, base: Program, tool: "ReadPointTool",
                 events: Sequence[str], interval_instructions: float) -> None:
        self.name = f"{base.name}+{tool.name}"
        self._base = base
        self.runtime = runtime = ReadPointRuntime(tool, list(events))
        self._instrumented = base.instrumented(BlockInserter(
            factory=partial(tool.read_point, runtime),
            every_instructions=interval_instructions,
            prologue=partial(tool.prologue, runtime),
            epilogue=partial(tool.epilogue, runtime),
        ))

    @property
    def metadata(self) -> Dict[str, float]:
        return self._base.metadata

    def blocks(self) -> Iterator[Block]:
        return self._instrumented.blocks()


class ReadPointSession(Session):
    def __init__(self, victim: Task, runtime: ReadPointRuntime,
                 period_ns: int) -> None:
        self.victim = victim
        self.runtime = runtime
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        runtime = self.runtime
        runtime.require_gate().detach()
        return ToolReport(
            tool=runtime.tool.name,
            events=list(runtime.events),
            period_ns=self.period_ns,
            samples=runtime.samples,
            totals=dict(runtime.totals),
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={"read_points": float(runtime.read_points)},
        )


class ReadPointTool(MonitoringTool):
    """Counts from the program's start call to its stop call, reading
    at each read point; a subclass sets its costs and builds its three
    block sequences from the runtime's handlers."""

    requires_source = True
    # The instrumented program carries a mutable runtime (gate, cost
    # factor, samples) that attach() rebinds per trial.
    reusable_preparation = False
    label: str                        # the tool's name in diagnostics
    read_syscall_ns_per_event: float  # kernel time per event read
    log_kernel_ns: float              # kernel time per sample logged

    def __init__(self,
                 frequency_hint_hz: float = DEFAULT_FREQUENCY_HZ) -> None:
        self.frequency_hint_hz = frequency_hint_hz

    def prologue(self, runtime: ReadPointRuntime) -> List[Block]:
        raise NotImplementedError

    def read_point(self, runtime: ReadPointRuntime) -> List[Block]:
        raise NotImplementedError

    def epilogue(self, runtime: ReadPointRuntime) -> List[Block]:
        raise NotImplementedError

    def prepare_program(self, program: Program, events: Sequence[str],
                        period_ns: int) -> ReadPointProgram:
        interval = instrumentation_interval(
            program, period_ns, self.frequency_hint_hz
        )
        return ReadPointProgram(program, self, events, interval)

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> ReadPointSession:
        program = task.program
        if not (isinstance(program, ReadPointProgram)
                and program.runtime.tool.name == self.name):
            raise ToolError(
                f"{self.label} requires the source: spawn the program "
                "returned by prepare_program()"
            )
        self.check_compatible(kernel, program)
        runtime = program.runtime
        runtime.gate = CounterGate(kernel, task, runtime.events, armed=False)
        runtime.samples = SampleColumns(runtime.gate.names)
        cost_rng = kernel.rng.stream(f"tool-cost:{self.name}")
        runtime.cost_factor = float(
            cost_rng.lognormal(0.0, costs.COST_SIGMA[self.name])
        )
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return ReadPointSession(task, runtime, period_ns)


def instrumentation_interval(program: Program, period_ns: int,
                             frequency_hz: float) -> float:
    """Instructions between read points for a target sample period.

    Mirrors the paper's methodology: place read points "at multiple
    strategic points in the program so that the numbers of data samples
    obtained are approximately the same as those of the timer-based
    tools" — i.e. one point per ``period_ns`` of *estimated* runtime.
    """
    metadata = program.metadata
    instructions = metadata.get("instructions")
    if not instructions:
        raise ToolError(
            f"cannot instrument {program.name!r}: no instruction-count "
            "metadata (the paper hit the same wall — instrumentation "
            "needs source-level knowledge)"
        )
    cpi = metadata.get("cpi_hint", 1.0)
    runtime_ns = instructions * cpi / frequency_hz * 1e9
    points = max(1.0, runtime_ns / period_ns)
    return instructions / points
