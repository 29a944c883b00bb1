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

:class:`IsolationGate` is the one per-PID isolation mechanism every
tool counts through — the context-switch kprobes of the paper's
Fig. 3, which K-LEB's module and the kernel perf-events subsystem both
use.  It owns the traced process tree and calls three tool callbacks:
``begin(cpu)`` when a traced task is switched in, ``pause(cpu)`` when
it is switched out, and ``stop()`` when the root exits.  The kernel
fires the exit probe before the exit's switch-out, so an exiting
traced task pauses its CPU at exit.  :class:`CounterGate` is the gate
perf stat, PAPI and LiMiT use: it places the requested events on the
PMU, enables counting on ``begin`` and snapshots totals on ``stop``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ToolError, ToolUnsupportedError
from repro.hw import schedule
from repro.hw.pmu import NUM_PROGRAMMABLE
from repro.kernel.kernel import Kernel
from repro.kernel.kprobes import ProbePoint
from repro.kernel.process import Task
from repro.samples import SampleColumns
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


def program_counters(kernel: Kernel,
                     events: Sequence[str]) -> schedule.CounterAssignment:
    """Place ``events`` and load them, with the fixed counters, onto
    ``kernel``'s PMU: user mode only, and globally disabled until a gate
    begins counting."""
    programmable = schedule.programmable_count(events)
    if programmable > NUM_PROGRAMMABLE:
        raise ToolError(
            f"{programmable} events exceed the {NUM_PROGRAMMABLE} "
            "programmable counters; use multiplexing"
        )
    # Raises ScheduleError, naming the violating events, when the
    # counter masks cannot host the request.
    assignment = schedule.assign_counters(events)
    pmu = kernel.pmu
    pmu.reset_counters()
    pmu.load_assignment(assignment, user=True, kernel=False)
    pmu.enable_fixed(user=True, kernel=False)
    pmu.global_disable()
    return assignment


def _live_descendants(kernels: Sequence[Kernel], root: Task) -> Set[int]:
    """The root's pid plus every live descendant's, by ppid walk."""
    tasks: Dict[int, Task] = {}
    for kernel in kernels:
        tasks.update(kernel.tasks)
    traced = {root.pid}
    frontier = [root]
    while frontier:
        for child_pid in frontier.pop().children:
            child = tasks.get(child_pid)
            if child is not None and child.alive and child_pid not in traced:
                traced.add(child_pid)
                frontier.append(child)
    return traced


class IsolationGate:
    """Per-PID isolation via context-switch kprobes (paper Fig. 3).

    Traces ``root``, its live descendants (e.g. a container shim's
    children) and everything they fork later, on each of ``kernels``
    (cpu ``i`` is ``kernels[i]``).  ``begin(cpu)`` runs when a traced
    task is switched in while armed (or is on the cpu at arming);
    ``pause(cpu)`` when it is switched out, migrated away or exits —
    the exit probe fires before the exit's switch-out, which no longer
    matches once the pid is dropped; ``stop()`` after the root's exit.

    Disarmed gates track the tree but do not count — used by
    instrumentation tools whose start/stop calls live inside the
    program (PAPI_start / PAPI_stop), so library initialization is not
    counted.  :attr:`migrations` counts traced tasks' cpu migrations.
    """

    def __init__(self, kernels: Sequence[Kernel], root: Task, *,
                 begin: Callable[[int], None],
                 pause: Callable[[int], None],
                 stop: Optional[Callable[[], None]] = None,
                 armed: bool = True) -> None:
        self.kernels = tuple(kernels)
        self.root = root
        self.traced = _live_descendants(self.kernels, root)
        # Per cpu: is a traced task on it with begin() called?
        self.counting = [False] * len(self.kernels)
        self.migrations = 0
        self.armed = False
        self._begin = begin
        self._pause = pause
        self._stop = stop
        self._handles = []
        for cpu, kernel in enumerate(self.kernels):
            probes = kernel.kprobes
            for point, handler in (
                (ProbePoint.SCHED_SWITCH_IN, partial(self._switch_in, cpu)),
                (ProbePoint.SCHED_SWITCH_OUT, partial(self._switch_out, cpu)),
                (ProbePoint.SCHED_MIGRATE, self._migrated),
                (ProbePoint.PROCESS_FORK, self._fork),
                (ProbePoint.PROCESS_EXIT, partial(self._exit, cpu)),
            ):
                self._handles.append((probes, probes.register(point,
                                                              handler)))
        if armed:
            self.arm()

    # -- probe handlers --------------------------------------------------
    def _switch_in(self, cpu: int, task: Task) -> None:
        if self.armed and task.pid in self.traced:
            self.counting[cpu] = True
            self._begin(cpu)

    def _switch_out(self, cpu: int, task: Task) -> None:
        # Only a traced task sets ``counting[cpu]``, and it is the one
        # on the cpu until this switch-out.
        if self.counting[cpu]:
            self.counting[cpu] = False
            self._pause(cpu)

    def _migrated(self, task: Task, src_cpu: int, dst_cpu: int) -> None:
        # Fires on the destination core; counting resumes there on the
        # task's next switch-in.
        if task.pid in self.traced:
            self.migrations += 1

    def _fork(self, parent: Task, child: Task) -> None:
        if parent.pid in self.traced:
            self.traced.add(child.pid)

    def _exit(self, cpu: int, task: Task) -> None:
        if task.pid not in self.traced:
            return
        self._switch_out(cpu, task)
        self.traced.discard(task.pid)
        if task is self.root and self._stop is not None:
            self._stop()

    # -- API ---------------------------------------------------------------
    def arm(self) -> None:
        """Start counting: begins every cpu a traced task is on now."""
        self.armed = True
        for cpu, kernel in enumerate(self.kernels):
            current = kernel.scheduler.current
            if (not self.counting[cpu] and current is not None
                    and current.pid in self.traced):
                self._switch_in(cpu, current)

    def disarm(self) -> None:
        """Stop counting: pauses every counting cpu."""
        self.armed = False
        self._pause_all()

    def detach(self) -> None:
        """Pause every counting cpu and unregister every probe."""
        self._pause_all()
        for probes, handle in self._handles:
            probes.unregister(handle)
        self._handles = []

    def _pause_all(self) -> None:
        for cpu, counting in enumerate(self.counting):
            if counting:
                self.counting[cpu] = False
                self._pause(cpu)


class CounterGate(IsolationGate):
    """The isolation gate on one kernel's PMU.

    Places ``events`` with :func:`program_counters`, enables the PMU on
    ``begin`` and disables it on ``pause``, and snapshots final totals
    when the root task exits.
    """

    def __init__(self, kernel: Kernel, root: Task, events: Sequence[str],
                 *, armed: bool = True) -> None:
        self.assignment = program_counters(kernel, events)
        self.kernel = kernel
        self.final_snapshot: Optional[Dict[str, int]] = None
        pmu = kernel.pmu
        # The sample row schema: the fixed counters plus the programmed
        # events, in ``snapshot()`` order.
        self.names = pmu.counter_row()[0]
        super().__init__((kernel,), root,
                         begin=lambda cpu: pmu.global_enable(),
                         pause=lambda cpu: pmu.global_disable(),
                         stop=self._root_exited, armed=armed)

    def _root_exited(self) -> None:
        self.final_snapshot = self.snapshot()

    def disarm(self) -> None:
        """Stop counting (PAPI_stop) and record the final snapshot."""
        self.final_snapshot = self.snapshot()
        super().disarm()

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
