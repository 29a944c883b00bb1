"""PAPI analogue: source-level instrumentation with syscall reads.

PAPI's properties as the paper characterizes them (§II-B, §V):

* **requires the source code** — monitoring calls are compiled into the
  program (here: the block stream is rewritten with read points);
* **expensive system calls** per counter read — the dominant per-point
  cost, and the reason PAPI tops Table II;
* a **one-time library initialization** (``PAPI_library_init`` + event
  set construction) before ``PAPI_start`` — a fixed cost that dominates
  short programs, producing Table III's 21.4 % on MKL dgemm;
* counting starts at ``PAPI_start`` and ends at ``PAPI_stop``, so the
  library init itself is *not* counted, but the small user-space
  bookkeeping at each read point *is* — PAPI's slight positive count
  deviation in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.workloads.base import (
    Block,
    BlockInserter,
    Program,
    RateBlock,
    SyscallBlock,
)

_DEFAULT_FREQUENCY_HZ = 2.67e9


@dataclass
class _PapiRuntime:
    """State shared between instrumented blocks and the session."""

    events: List[str]
    gate: Optional[CounterGate] = None
    samples: SampleColumns = field(default_factory=SampleColumns)
    totals: Dict[str, float] = field(default_factory=dict)
    cost_factor: float = 1.0
    read_points: int = 0

    def require_gate(self) -> CounterGate:
        if self.gate is None:
            raise ToolError("PAPI instrumentation ran before attach()")
        return self.gate


class PapiInstrumentedProgram(Program):
    """A victim program recompiled with PAPI calls."""

    def __init__(self, base: Program, events: Sequence[str],
                 interval_instructions: float) -> None:
        self.name = f"{base.name}+papi"
        self._base = base
        self.runtime = _PapiRuntime(events=list(events))
        inserter = BlockInserter(
            factory=self._read_point,
            every_instructions=interval_instructions,
            prologue=self._prologue,
            epilogue=self._epilogue,
        )
        self._instrumented = base.instrumented(inserter)

    @property
    def metadata(self) -> Dict[str, float]:
        return self._base.metadata

    def blocks(self) -> Iterator[Block]:
        return self._instrumented.blocks()

    # -- instrumentation pieces -----------------------------------------
    def _prologue(self) -> List[Block]:
        runtime = self.runtime

        def do_start(kernel: Kernel, task: Task):
            runtime.require_gate().arm()
            return True

        return [
            # PAPI_library_init + component discovery + event set build.
            RateBlock(
                instructions=(costs.PAPI_INIT_NS / 1e9) * _DEFAULT_FREQUENCY_HZ,
                rates={"LOADS": 0.33, "STORES": 0.22, "BRANCHES": 0.15},
                label="papi-library-init",
            ),
            SyscallBlock("papi_start", handler=do_start, label="PAPI_start"),
        ]

    def _read_point(self) -> List[Block]:
        runtime = self.runtime

        def do_read(kernel: Kernel, task: Task):
            kernel.charge_kernel_time(int(
                len(runtime.events)
                * costs.PAPI_READ_SYSCALL_NS_PER_EVENT
                * runtime.cost_factor
            ))
            row = runtime.require_gate().row()
            runtime.samples.append(kernel.now, row)
            runtime.read_points += 1
            return row

        def do_log(kernel: Kernel, task: Task):
            kernel.charge_kernel_time(int(
                costs.PAPI_LOG_KERNEL_NS * runtime.cost_factor
            ))
            return True

        return [
            SyscallBlock("read", handler=do_read, label="PAPI_read"),
            # User-side bookkeeping around the read — counted by the
            # user-mode counters because it runs between start and stop.
            RateBlock(
                instructions=costs.PAPI_USER_INSTRUCTIONS_PER_POINT,
                rates={"LOADS": 0.4, "STORES": 0.3, "BRANCHES": 0.1},
                label="papi-bookkeeping",
            ),
            SyscallBlock("write", handler=do_log, label="papi-log"),
        ]

    def _epilogue(self) -> List[Block]:
        runtime = self.runtime

        def do_stop(kernel: Kernel, task: Task):
            gate = runtime.require_gate()
            gate.disarm()
            runtime.totals = {
                name: float(value)
                for name, value in (gate.final_snapshot or {}).items()
            }
            return runtime.totals

        return [SyscallBlock("papi_stop", handler=do_stop, label="PAPI_stop")]


class PapiSession(Session):
    def __init__(self, kernel: Kernel, victim: Task,
                 runtime: _PapiRuntime, period_ns: int) -> None:
        self.kernel = kernel
        self.victim = victim
        self.runtime = runtime
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        self.runtime.require_gate().detach()
        return ToolReport(
            tool="papi",
            events=list(self.runtime.events),
            period_ns=self.period_ns,
            samples=self.runtime.samples,
            totals=dict(self.runtime.totals),
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={"read_points": float(self.runtime.read_points)},
        )


class PapiTool(MonitoringTool):
    """PAPI-C: instrumented collection through syscall reads."""

    name = "papi"
    requires_source = True
    # The instrumented program carries a mutable runtime (gate, cost
    # factor, samples) that attach() rebinds per trial.
    reusable_preparation = False

    def __init__(self, frequency_hint_hz: float = _DEFAULT_FREQUENCY_HZ) -> None:
        self.frequency_hint_hz = frequency_hint_hz

    def prepare_program(self, program: Program, events: Sequence[str],
                        period_ns: int) -> PapiInstrumentedProgram:
        interval = instrumentation_interval(
            program, period_ns, self.frequency_hint_hz
        )
        return PapiInstrumentedProgram(program, events, interval)

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> PapiSession:
        program = task.program
        if not isinstance(program, PapiInstrumentedProgram):
            raise ToolError(
                "PAPI requires the source: spawn the program returned by "
                "prepare_program()"
            )
        runtime = program.runtime
        runtime.gate = CounterGate(kernel, task, runtime.events,
                                   count_kernel=False, armed=False)
        runtime.samples = SampleColumns(runtime.gate.names)
        cost_rng = kernel.rng.stream("tool-cost:papi")
        runtime.cost_factor = float(
            cost_rng.lognormal(0.0, costs.COST_SIGMA["papi"])
        )
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return PapiSession(kernel, task, runtime, period_ns)


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
