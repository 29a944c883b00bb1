"""Monitoring tool interfaces and shared machinery.

A tool participates in a monitored run through two hooks:

* :meth:`MonitoringTool.prepare_program` — rewrite the victim program
  before it is spawned.  Only source-instrumentation tools (PAPI,
  LiMiT) use this; it is the "requires the source code" property the
  paper contrasts K-LEB against.
* :meth:`MonitoringTool.attach` — set up kernel-side machinery (load a
  module, spawn a controller task, register probes) around an
  already-spawned task.  Returns a :class:`Session`.

After the victim exits, the runner calls :meth:`Session.finalize`,
which may continue running the kernel (draining controller buffers)
and then produces a :class:`ToolReport`.

:class:`CounterGate` is the shared context-switch isolation machinery:
place the requested events on the PMU, enable counting only while a
traced task runs, and follow forks/exits.  K-LEB implements this with
its own kprobes inside the module; perf gets it from the kernel
perf-events subsystem — mechanically the same hooks, so they share the
implementation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ToolError, ToolUnsupportedError
from repro.hw import schedule
from repro.hw.pmu import NUM_PROGRAMMABLE
from repro.kernel.kernel import Kernel
from repro.kernel.kprobes import ProbePoint
from repro.kernel.process import Task
from repro.samples import Sample, SampleColumns  # noqa: F401 (re-exported)
from repro.workloads.base import Program


@dataclass
class ToolReport:
    """Everything a monitoring session produced."""

    tool: str
    events: List[str]
    period_ns: int
    samples: SampleColumns
    totals: Dict[str, float]
    victim_wall_ns: int
    victim_pid: int
    metadata: Dict[str, float] = field(default_factory=dict)
    # Closed-loop control ledger rows (adaptive K-LEB runs only);
    # ``None`` keeps non-adaptive reports byte-identical to the
    # pre-control format.
    control: Optional[List[Dict[str, object]]] = None

    @property
    def sample_count(self) -> int:
        return len(self.samples)


class Session:
    """A live monitoring session; produced by :meth:`MonitoringTool.attach`."""

    def finalize(self) -> ToolReport:
        """Stop monitoring, drain buffers, and build the report."""
        raise NotImplementedError


class MonitoringTool:
    """Base class for performance-counter collection tools."""

    name = "tool"
    requires_source = False           # PAPI/LiMiT: must rewrite the program
    required_patches: Sequence[str] = ()   # LiMiT: kernel patch
    kernel_version: Optional[str] = None   # pin to a specific kernel release
    min_period_ns: int = 0            # sampling-rate floor (perf: 10 ms)
    # Whether prepare_program's result may be reused across trials of
    # the same (program, events, period).  Instrumentation tools whose
    # prepared program embeds a mutable per-trial runtime set this
    # False; the runner then re-prepares every trial.
    reusable_preparation = True

    def check_compatible(self, kernel: Kernel, program: Program) -> None:
        """Raise :class:`ToolUnsupportedError` if this pairing cannot run."""
        for patch in self.required_patches:
            if patch not in kernel.patches:
                raise ToolUnsupportedError(
                    f"{self.name} requires kernel patch {patch!r}; "
                    "this kernel is unpatched"
                )
        min_major = program.metadata.get("min_kernel_major")
        if min_major is not None:
            running = kernel.config.kernel_version
            major = int(running.split(".", 1)[0])
            if major < int(min_major):
                raise ToolUnsupportedError(
                    f"{program.name} requires kernel >= {min_major:.0f}.x "
                    f"but {self.name} runs on {running}"
                )

    def effective_period(self, period_ns: int) -> int:
        """Clamp a requested period to the tool's floor."""
        return max(period_ns, self.min_period_ns)

    def prepare_program(self, program: Program, events: Sequence[str],
                        period_ns: int) -> Program:
        """Rewrite the victim before spawn (default: untouched)."""
        return program

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> Session:
        """Set up monitoring around ``task``; return the session."""
        raise NotImplementedError


class CounterGate:
    """Per-task counter isolation via context-switch hooks.

    Places ``events`` with :func:`~repro.hw.schedule.assign_counters`,
    loads that placement onto the PMU, and enables counting only while
    one of the traced tasks is on the CPU.  Forked children of traced
    tasks are traced too; the gate snapshots final totals when the root
    task exits.
    """

    def __init__(self, kernel: Kernel, root: Task, events: Sequence[str],
                 *, count_kernel: bool = False, armed: bool = True) -> None:
        programmable = schedule.programmable_count(events)
        if programmable > NUM_PROGRAMMABLE:
            raise ToolError(
                f"{programmable} events exceed the {NUM_PROGRAMMABLE} "
                "programmable counters; use multiplexing"
            )
        # Raises ScheduleError, naming the violating events, when the
        # counter masks cannot host the request.
        self.assignment = schedule.assign_counters(events)
        self.kernel = kernel
        self.root = root
        self.count_kernel = count_kernel
        self.traced_pids: Set[int] = {root.pid}
        self.counting = False
        # Disarmed gates track the task but do not count — used by
        # instrumentation tools whose start/stop calls live inside the
        # program (PAPI_start / PAPI_stop), so library initialization
        # is not counted.
        self.armed = armed
        self.final_snapshot: Optional[Dict[str, int]] = None
        self._handles = []
        pmu = kernel.pmu
        pmu.reset_counters()
        pmu.load_assignment(self.assignment, user=True, kernel=count_kernel)
        pmu.enable_fixed(user=True, kernel=count_kernel)
        pmu.global_disable()
        # The sample row schema: the fixed counters plus the programmed
        # events, in ``snapshot()`` order.
        self.names = pmu.counter_row()[0]
        probes = kernel.kprobes
        self._handles = [
            probes.register(ProbePoint.SCHED_SWITCH_IN, self._switch_in),
            probes.register(ProbePoint.SCHED_SWITCH_OUT, self._switch_out),
            probes.register(ProbePoint.PROCESS_FORK, self._fork),
            probes.register(ProbePoint.PROCESS_EXIT, self._exit),
        ]

    # -- probe handlers --------------------------------------------------
    def _switch_in(self, task: Task) -> None:
        if self.armed and task.pid in self.traced_pids:
            self.kernel.pmu.global_enable()
            self.counting = True

    def _switch_out(self, task: Task) -> None:
        if task.pid in self.traced_pids and self.counting:
            self.kernel.pmu.global_disable()
            self.counting = False

    def _fork(self, parent: Task, child: Task) -> None:
        if parent.pid in self.traced_pids:
            self.traced_pids.add(child.pid)

    def _exit(self, task: Task) -> None:
        if task.pid not in self.traced_pids:
            return
        if task.pid == self.root.pid:
            self.final_snapshot = dict(
                self.kernel.pmu.snapshot(self.kernel.now).by_event
            )
        self.traced_pids.discard(task.pid)

    # -- API ---------------------------------------------------------------
    def arm(self) -> None:
        """Start counting (PAPI_start): enables now if a traced task runs."""
        self.armed = True
        current = self.kernel.scheduler.current
        if current is not None and current.pid in self.traced_pids:
            self.kernel.pmu.global_enable()
            self.counting = True

    def disarm(self) -> None:
        """Stop counting (PAPI_stop) and record the final snapshot."""
        self.final_snapshot = self.snapshot()
        self.armed = False
        if self.counting:
            self.kernel.pmu.global_disable()
            self.counting = False

    def snapshot(self) -> Dict[str, int]:
        """Current cumulative counts for the traced task set."""
        return dict(self.kernel.pmu.snapshot(self.kernel.now).by_event)

    def row(self) -> List[int]:
        """Current cumulative counts as one row in :attr:`names` order."""
        return self.kernel.pmu.counter_row()[1]

    def totals(self) -> Dict[str, int]:
        """Final counts (at root exit if it exited, else live)."""
        if self.final_snapshot is not None:
            return dict(self.final_snapshot)
        return self.snapshot()

    def detach(self) -> None:
        """Unregister every probe and stop counting."""
        for handle in self._handles:
            self.kernel.kprobes.unregister(handle)
        self._handles = []
        self.kernel.pmu.global_disable()
