"""LiMiT analogue: user-space counter reads on a patched kernel.

LiMiT (Demme & Sethumadhavan, ISCA'11) removes PAPI's syscall cost by
patching the kernel so user code can read (``rdpmc``) and manage the
counters directly.  The paper's characterization (§II-B, §V):

* needs a **kernel patch** — cannot be used on a stock or already
  running system (K-LEB's module-based deployment advantage);
* the patch exists for an old kernel only (their LiMiT box ran Ubuntu
  12.04 / 2.6.32), which is why Table III has no LiMiT entry for
  Intel MKL;
* per read point the counter access itself is nearly free, but the
  sample still has to be logged — so LiMiT lands *between* K-LEB and
  PAPI in Table II (4.08 %).
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
from repro.tools.papi import instrumentation_interval
from repro.workloads.base import (
    Block,
    BlockInserter,
    Program,
    RateBlock,
    SyscallBlock,
    user_probe,
)

_DEFAULT_FREQUENCY_HZ = 2.67e9

LIMIT_PATCH = "limit"


@dataclass
class _LimitRuntime:
    """State shared between instrumented blocks and the session."""

    events: List[str]
    gate: Optional[CounterGate] = None
    samples: SampleColumns = field(default_factory=SampleColumns)
    totals: Dict[str, float] = field(default_factory=dict)
    cost_factor: float = 1.0
    read_points: int = 0

    def require_gate(self) -> CounterGate:
        if self.gate is None:
            raise ToolError("LiMiT instrumentation ran before attach()")
        return self.gate


class LimitInstrumentedProgram(Program):
    """A victim program rebuilt against the LiMiT user-space library."""

    def __init__(self, base: Program, events: Sequence[str],
                 interval_instructions: float) -> None:
        self.name = f"{base.name}+limit"
        self._base = base
        self.runtime = _LimitRuntime(events=list(events))
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

        def do_enable(kernel: Kernel, task: Task):
            # With the LiMiT patch, enabling counters from user land is
            # a lightweight operation (no context switch into a driver).
            runtime.require_gate().arm()
            return True

        return [
            RateBlock(
                instructions=(costs.LIMIT_SETUP_NS / 1e9)
                * _DEFAULT_FREQUENCY_HZ,
                rates={"LOADS": 0.3, "STORES": 0.2, "BRANCHES": 0.12},
                label="limit-setup",
            ),
            user_probe(do_enable, label="limit-enable"),
        ]

    def _read_point(self) -> List[Block]:
        runtime = self.runtime

        def do_rdpmc(kernel: Kernel, task: Task):
            # Pure user-space rdpmc loop — no syscall, no kernel time.
            row = runtime.require_gate().row()
            runtime.samples.append(kernel.now, row)
            runtime.read_points += 1
            return row

        def do_log(kernel: Kernel, task: Task):
            kernel.charge_kernel_time(int(
                costs.LIMIT_LOG_KERNEL_NS * runtime.cost_factor
            ))
            return True

        return [
            # The rdpmc + overflow-check sequence per event.
            RateBlock(
                instructions=costs.LIMIT_USER_INSTRUCTIONS_PER_READ
                * len(runtime.events),
                rates={"LOADS": 0.35, "STORES": 0.25, "BRANCHES": 0.1},
                label="limit-rdpmc",
            ),
            user_probe(do_rdpmc, label="limit-read"),
            SyscallBlock("write", handler=do_log, label="limit-log"),
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

        return [user_probe(do_stop, label="limit-stop")]


class LimitSession(Session):
    def __init__(self, kernel: Kernel, victim: Task,
                 runtime: _LimitRuntime, period_ns: int) -> None:
        self.kernel = kernel
        self.victim = victim
        self.runtime = runtime
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        self.runtime.require_gate().detach()
        return ToolReport(
            tool="limit",
            events=list(self.runtime.events),
            period_ns=self.period_ns,
            samples=self.runtime.samples,
            totals=dict(self.runtime.totals),
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={"read_points": float(self.runtime.read_points)},
        )


class LimitTool(MonitoringTool):
    """LiMiT: precise event counting via a kernel patch."""

    name = "limit"
    requires_source = True
    required_patches = (LIMIT_PATCH,)
    # The instrumented program carries a mutable runtime (gate, cost
    # factor, samples) that attach() rebinds per trial.
    reusable_preparation = False
    # The patch only exists for this kernel line (paper §IV preamble:
    # "The LiMiT patch is running on Ubuntu 12.04 with 2.6.32").
    kernel_version = "2.6.32"

    def __init__(self, frequency_hint_hz: float = _DEFAULT_FREQUENCY_HZ) -> None:
        self.frequency_hint_hz = frequency_hint_hz

    def prepare_program(self, program: Program, events: Sequence[str],
                        period_ns: int) -> LimitInstrumentedProgram:
        interval = instrumentation_interval(
            program, period_ns, self.frequency_hint_hz
        )
        return LimitInstrumentedProgram(program, events, interval)

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> LimitSession:
        program = task.program
        if not isinstance(program, LimitInstrumentedProgram):
            raise ToolError(
                "LiMiT requires the source: spawn the program returned by "
                "prepare_program()"
            )
        self.check_compatible(kernel, program)
        runtime = program.runtime
        runtime.gate = CounterGate(kernel, task, runtime.events,
                                   count_kernel=False, armed=False)
        runtime.samples = SampleColumns(runtime.gate.names)
        cost_rng = kernel.rng.stream("tool-cost:limit")
        runtime.cost_factor = float(
            cost_rng.lognormal(0.0, costs.COST_SIGMA["limit"])
        )
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return LimitSession(kernel, task, runtime, period_ns)
