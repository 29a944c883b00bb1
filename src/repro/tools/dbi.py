"""Dynamic binary instrumentation profiler (Valgrind/Callgrind-style).

The paper's introduction contrasts counter-based collection against
DBI: programs are translated to an IR, instrumented, and recompiled,
which "can produce significant overhead, which makes online analysis
with software-based profiling for fine-grained events sub-optimal" —
while needing neither source code nor hardware counters.

This model captures that trade-off:

* **no source needed** (operates on the binary/block stream);
* **exact** event counts — instrumentation observes every instruction,
  so the reported totals are the ground truth, not PMU readings;
* **very high overhead** — every guest instruction expands into several
  host instructions (the translation tax), plus a one-time translation
  warm-up per program.

Useful as the contrast point in overhead ablations: the reason the
counter-based tools exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.errors import ToolError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Task, TaskState
from repro.tools.base import MonitoringTool, SampleColumns, Session, ToolReport
from repro.workloads.base import (
    Block,
    Program,
    RateBlock,
    TraceBlock,
    user_probe,
)

# Every guest instruction costs this many host instructions once
# translated (dispatch, bookkeeping, event counters in the IR).
DBI_EXPANSION_FACTOR = 9.0
# One-time translation cost per program, in host instructions.
DBI_TRANSLATION_INSTRUCTIONS = 3.0e7


@dataclass
class _DbiRuntime:
    """Shadow event counts maintained by the instrumentation itself.

    Samples and totals cover the requested events plus INST_RETIRED.
    """

    events: List[str]
    counts: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.samples = SampleColumns(
            dict.fromkeys([*self.events, "INST_RETIRED"]))

    def record(self, contributions: Dict[str, float]) -> None:
        for name, amount in contributions.items():
            self.counts[name] = self.counts.get(name, 0.0) + amount


class DbiInstrumentedProgram(Program):
    """The victim, translated and instrumented block by block."""

    def __init__(self, base: Program, events: Sequence[str]) -> None:
        self.name = f"{base.name}+dbi"
        self._base = base
        self.runtime = _DbiRuntime(events=list(events))

    @property
    def metadata(self) -> Dict[str, float]:
        return self._base.metadata

    def blocks(self) -> Iterator[Block]:
        runtime = self.runtime
        # Translation warm-up: the JIT compiles the working set of code.
        yield RateBlock(
            instructions=DBI_TRANSLATION_INSTRUCTIONS,
            rates={"LOADS": 0.35, "STORES": 0.25, "BRANCHES": 0.2},
            label="dbi-translate",
        )
        for block in self._base.blocks():
            if isinstance(block, RateBlock):
                guest = block.instructions
                contributions = {
                    name: rate * guest for name, rate in block.rates.items()
                }
                contributions["INST_RETIRED"] = guest

                def count(kernel: Kernel, task: Task,
                          contributions=contributions):
                    runtime.record(contributions)
                    runtime.samples.append(kernel.now, [
                        int(runtime.counts.get(name, 0.0))
                        for name in runtime.samples.names
                    ])

                # The translated block: guest work expanded by the
                # instrumentation tax, then the shadow-counter update.
                yield RateBlock(
                    instructions=guest * DBI_EXPANSION_FACTOR,
                    rates=dict(block.rates),
                    cpi=block.cpi,
                    privilege=block.privilege,
                    label=f"dbi:{block.label}",
                )
                yield user_probe(count, label="dbi-count")
            elif isinstance(block, TraceBlock):
                per_op = block.instructions_per_op + block.event_scale
                guest = len(block.ops) * per_op
                contributions = {"INST_RETIRED": guest}

                def count_trace(kernel: Kernel, task: Task,
                                contributions=contributions):
                    runtime.record(contributions)

                # Memory behaviour must stay real: replay the trace,
                # but pay the expansion on the interleaved instructions.
                yield TraceBlock(
                    ops=block.ops,
                    instructions_per_op=block.instructions_per_op
                    * DBI_EXPANSION_FACTOR,
                    event_scale=block.event_scale,
                    cpi=block.cpi,
                    privilege=block.privilege,
                    label=f"dbi:{block.label}",
                )
                yield user_probe(count_trace, label="dbi-count")
            else:
                yield block


class DbiSession(Session):
    def __init__(self, kernel: Kernel, victim: Task,
                 runtime: _DbiRuntime, period_ns: int) -> None:
        self.kernel = kernel
        self.victim = victim
        self.runtime = runtime
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        totals = {
            name: float(value)
            for name, value in self.runtime.counts.items()
            if name in self.runtime.samples.names
        }
        return ToolReport(
            tool="dbi",
            events=list(self.runtime.events),
            period_ns=self.period_ns,
            samples=self.runtime.samples,
            totals=totals,
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={"expansion_factor": DBI_EXPANSION_FACTOR},
        )


class DbiTool(MonitoringTool):
    """DBI profiler: exact counts, no source, brutal overhead."""

    name = "dbi"
    requires_source = False  # binaries are enough — that's DBI's point
    # The translated program carries a live DbiRuntime consumed by
    # attach(); it must be rebuilt for every trial.
    reusable_preparation = False

    def prepare_program(self, program: Program, events: Sequence[str],
                        period_ns: int) -> DbiInstrumentedProgram:
        return DbiInstrumentedProgram(program, events)

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> DbiSession:
        program = task.program
        if not isinstance(program, DbiInstrumentedProgram):
            raise ToolError(
                "DBI runs the program under translation: spawn the program "
                "returned by prepare_program()"
            )
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return DbiSession(kernel, task, program.runtime, period_ns)
