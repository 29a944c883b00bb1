"""The simulated kernel: process lifecycle, syscalls, interrupts, and
the machine run loop.

The run loop executes the current task in *slices* bounded by the next
simulation event (timer fire, quantum expiry), services syscalls and
interrupts with explicit time costs counted at kernel privilege, and
drives the scheduler's context-switch path — the hook point K-LEB's
kprobes attach to.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import KernelError, ModuleError, ProcessError, SyscallError
from repro.faults.inject import FaultInjector
from repro.hw.core import ExecStop
from repro.hw.machine import Machine
from repro.kernel.config import KernelConfig
from repro.kernel.kprobes import KprobeManager, ProbePoint
from repro.kernel.module import KernelModule
from repro.kernel.process import Task, TaskState
from repro.kernel.scheduler import Scheduler
from repro.sim.clock import Clock
from repro.sim.engine import EventQueue
from repro.sim.rng import RngStreams
from repro.workloads.base import (
    IMPLICIT_EVENTS,
    Program,
    SyscallBlock,
    USER_PROBE,
)


class Kernel:
    """A booted simulated system: one machine, one kernel."""

    def __init__(self, machine: Machine,
                 config: Optional[KernelConfig] = None,
                 rng: Optional[RngStreams] = None,
                 patches: Optional[List[str]] = None,
                 faults: Optional[FaultInjector] = None) -> None:
        self.machine = machine
        self.config = config if config is not None else KernelConfig()
        self.rng = rng if rng is not None else RngStreams(0)
        # Fault oracle consulted at hook points (HRTimer fires, module
        # ioctl/read, buffer pushes).  Draws from its own seeded streams,
        # so an inert injector leaves the simulation bit-identical.
        self.faults = faults if faults is not None else FaultInjector()
        self.clock = Clock()
        self.events = EventQueue()
        self.kprobes = KprobeManager()
        self.scheduler = Scheduler(self.config.quantum_ns, self.kprobes)
        self.tasks: Dict[int, Task] = {}
        self.modules: Dict[str, KernelModule] = {}
        # Kernel patches applied at "build time" (LiMiT needs one; a
        # stock kernel has none — that is K-LEB's deployment advantage).
        self.patches = set(patches or [])
        self.syscall_counts: Counter = Counter()
        # charge_kernel_time's epoch columns, and its memoized
        # duration -> column values.
        rates = self.config.kernel_work_rates
        if any(name in rates for name in IMPLICIT_EVENTS):
            raise KernelError(
                "instruction/cycle events are implicit in kernel_work_rates")
        self._charge_names = tuple(rates) + IMPLICIT_EVENTS
        self._charge_cache: Dict[int, Tuple[float, ...]] = {}
        self._next_pid = 1000
        self._wake_rng = self.rng.stream("wakeup-latency")
        self._noise_rng = self.rng.stream("os-noise")
        if self.config.noise_enabled and self.config.noise_rate_per_sec > 0:
            self._schedule_noise()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.clock.now

    @property
    def pmu(self):
        return self.machine.pmu

    def task(self, pid: int) -> Task:
        try:
            return self.tasks[pid]
        except KeyError:
            raise ProcessError(f"no such pid {pid}") from None

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, program: Program, name: Optional[str] = None,
              ppid: int = 0, start: bool = True, nice: int = 0) -> Task:
        """Create a task for ``program``.

        With ``start=False`` the task is created stopped (as if sent
        SIGSTOP right after fork) — monitoring tools use this to finish
        attaching before the victim executes its first instruction.
        Resume it with :meth:`start_task`.  ``nice`` sets the scheduling
        priority (-20 best .. 19 worst, 0 default).
        """
        pid = self._next_pid
        self._next_pid += 1
        task = Task(pid=pid, name=name or program.name, program=program,
                    ppid=ppid, start_time=self.now, nice=nice)
        self.tasks[pid] = task
        if ppid in self.tasks:
            parent = self.tasks[ppid]
            parent.children.append(pid)
            self.kprobes.fire(ProbePoint.PROCESS_FORK, parent, task)
        if start:
            self.scheduler.enqueue(task)
        else:
            task.state = TaskState.SLEEPING
        return task

    def start_task(self, task: Task) -> None:
        """Resume a task spawned with ``start=False`` (SIGCONT)."""
        task.start_time = self.now
        self._wake(task)

    def _exit_current(self) -> None:
        task = self.scheduler.current
        if task is None:
            raise KernelError("no current task to exit")
        self.kprobes.fire(ProbePoint.PROCESS_EXIT, task)
        self._charge_context_switch()
        self.scheduler.deschedule_current(TaskState.EXITED)
        task.exit_time = self.now
        for callback in task.on_exit:
            callback(task)

    # ------------------------------------------------------------------
    # Modules
    # ------------------------------------------------------------------
    def load_module(self, module: KernelModule) -> KernelModule:
        """insmod: attach a module to this kernel."""
        if module.name in self.modules:
            raise ModuleError(f"module {module.name!r} already loaded")
        module._attach(self)
        self.modules[module.name] = module
        return module

    def get_module(self, name: str) -> KernelModule:
        try:
            return self.modules[name]
        except KeyError:
            raise ModuleError(f"module {name!r} not loaded") from None

    # ------------------------------------------------------------------
    # Time charging (kernel-privilege work)
    # ------------------------------------------------------------------
    def charge_kernel_time(self, duration_ns: int) -> None:
        """Advance the clock by kernel work, counted at ring 0.

        The event mix for a given duration is a pure function of the
        (immutable) kernel config and core timing, and the durations
        are a handful of fixed costs (IRQ entry/exit, context switch,
        syscall entry) charged hundreds of thousands of times per run —
        so the epoch values are memoized per duration.  The cache is
        bounded: randomized durations (OS noise bursts) stop being
        cached past the cap rather than growing without limit.
        """
        if duration_ns <= 0:
            return
        cache = self._charge_cache
        values = cache.get(duration_ns)
        if values is None:
            core = self.machine.core
            cycles = core.ns_to_cycles(duration_ns)
            instructions = cycles / self.config.kernel_work_cpi
            values = tuple(
                rate * instructions
                for rate in self.config.kernel_work_rates.values()
            ) + (instructions, cycles, cycles * core.tsc_ratio)
            if len(cache) < 1024:
                cache[duration_ns] = values
        self.pmu.accumulate_epoch(self._charge_names, values, "kernel")
        self.clock.advance(duration_ns)

    def run_interrupt(self, handler: Callable[..., None], *args) -> None:
        """Run ``handler(*args)`` in interrupt context, charging
        entry/exit."""
        self.charge_kernel_time(self.config.irq_entry_ns)
        handler(*args)
        self.charge_kernel_time(self.config.irq_exit_ns)

    def _charge_context_switch(self) -> None:
        self.charge_kernel_time(self.config.context_switch_ns)

    # ------------------------------------------------------------------
    # Sleep / wake
    # ------------------------------------------------------------------
    def sleep_current(self, duration_ns: int, *,
                      high_resolution: bool = False) -> None:
        """Block the current task for ``duration_ns``.

        Ordinary (user-space timer) sleeps round **up** to the jiffy
        resolution — the 10 ms floor that caps perf's sampling rate.
        ``high_resolution`` bypasses the floor (clock_nanosleep with a
        high-res clock), still paying wakeup latency.
        """
        task = self.scheduler.current
        if task is None:
            raise KernelError("sleep_current with no current task")
        if duration_ns <= 0:
            raise SyscallError(f"invalid sleep duration {duration_ns}")
        if not high_resolution:
            resolution = self.config.user_timer_resolution_ns
            duration_ns = int(math.ceil(duration_ns / resolution) * resolution)
        latency = max(0, int(self._wake_rng.normal(
            self.config.wakeup_latency_mean_ns,
            self.config.wakeup_latency_sd_ns,
        )))
        wake_at = self.now + duration_ns + latency
        self._charge_context_switch()
        self.scheduler.deschedule_current(TaskState.SLEEPING)
        self.events.schedule(wake_at, lambda when, t=task: self._wake(t),
                             label=f"wake:{task.pid}")

    def _wake(self, task: Task) -> None:
        if task.state is TaskState.SLEEPING:
            task.set_state(TaskState.RUNNABLE)
            self.scheduler.enqueue(task)

    # ------------------------------------------------------------------
    # Syscall servicing
    # ------------------------------------------------------------------
    def _service_syscall(self, task: Task, block: SyscallBlock) -> None:
        if block.name == USER_PROBE:
            # Not a real trap: user-space code observing state with
            # unprivileged instructions (e.g. LiMiT's rdpmc read).  No
            # mode switch, no kernel time.
            if block.handler is not None:
                task.last_syscall_result = block.handler(self, task)
            return
        costs = self.config.syscalls
        self.syscall_counts[block.name] += 1
        self.charge_kernel_time(costs.entry_ns)
        self.charge_kernel_time(costs.per_call_ns.get(block.name, 500))
        if block.handler is not None:
            task.last_syscall_result = block.handler(self, task)
        self.charge_kernel_time(costs.exit_ns)

    # ------------------------------------------------------------------
    # OS background noise
    # ------------------------------------------------------------------
    def _schedule_noise(self) -> None:
        interarrival_s = self._noise_rng.exponential(
            1.0 / self.config.noise_rate_per_sec
        )
        fire_at = self.now + max(1, int(interarrival_s * 1e9))
        self.events.schedule(fire_at, self._noise_fire, label="os-noise")

    def _noise_fire(self, when: int) -> None:
        cost = max(
            1_000,
            int(self._noise_rng.normal(self.config.noise_cost_mean_ns,
                                       self.config.noise_cost_sd_ns)),
        )
        self.run_interrupt(self.charge_kernel_time, cost)
        self._schedule_noise()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, deadline: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Advance the system until ``deadline``, ``stop_when()``, or
        every task has exited."""
        while True:
            self.events.dispatch_due(self.now)
            if stop_when is not None and stop_when():
                return
            if deadline is not None and self.now >= deadline:
                return
            if self.scheduler.current is None:
                task = self.scheduler.pick_next(self.now)
                if task is None:
                    if not self._advance_idle(deadline):
                        return
                    continue
            current = self.scheduler.current
            slice_end = self.scheduler.quantum_expiry()
            next_event = self.events.peek_time()
            if next_event is not None:
                slice_end = min(slice_end, next_event)
            if deadline is not None:
                slice_end = min(slice_end, deadline)
            budget = slice_end - self.now
            if budget <= 0:
                # Nothing touched the event queue since the peek above,
                # so the boundary handler can reuse its result instead
                # of peeking again.
                self._handle_boundary(next_event)
                continue
            result = self.machine.core.execute(current.cursor, budget)
            if result.consumed_ns == 0 and result.stop is ExecStop.BUDGET:
                # Budget smaller than one instruction: burn it as idle
                # spin so the loop always makes progress.
                self.clock.advance(budget)
                continue
            self.clock.advance(result.consumed_ns)
            current.cpu_time_ns += result.consumed_ns
            current.instructions_retired += result.instructions
            if result.stop is ExecStop.PROGRAM_DONE:
                self._exit_current()
            elif result.stop is ExecStop.SYSCALL:
                assert result.syscall is not None
                self._service_syscall(current, result.syscall)
            else:
                if self.scheduler.should_preempt(self.now):
                    self._charge_context_switch()
                    self.scheduler.deschedule_current(TaskState.RUNNABLE)
                else:
                    self._maybe_migrate()

    def run_until_exit(self, task: Task,
                       deadline: Optional[int] = None) -> None:
        """Run until ``task`` exits (or the safety deadline trips)."""
        self.run(deadline=deadline,
                 stop_when=lambda: task.state is TaskState.EXITED)
        if task.state is not TaskState.EXITED:
            raise KernelError(
                f"pid {task.pid} ({task.name}) did not exit by deadline"
            )

    def _handle_boundary(self, next_event: Optional[int]) -> None:
        """Zero-budget slice: quantum and/or event boundary is *now*.

        ``next_event`` is the caller's already-computed ``peek_time()``
        result — the run loop peeks once per iteration and threads the
        value through.
        """
        if self.scheduler.should_preempt(self.now):
            self._charge_context_switch()
            self.scheduler.deschedule_current(TaskState.RUNNABLE)
        elif self._maybe_migrate():
            pass  # Current task left for another CPU; re-pick next loop.
        else:
            if next_event is None or next_event > self.now:
                # Alone on the CPU with the quantum spent: new slice.
                self.scheduler.refresh_slice(self.now)
            # Events due exactly now dispatch at the top of the loop.

    def _maybe_migrate(self) -> bool:
        """Offer the current task to the cluster's migration hook.

        A single-core kernel has no hook installed, so this is one
        attribute check on that path — behaviour and RNG consumption
        are untouched.
        """
        hook = self.scheduler.migration
        if hook is None or self.scheduler.current is None:
            return False
        return hook(self)

    def _advance_idle(self, deadline: Optional[int]) -> bool:
        """No runnable task: jump to the next event.

        Returns False when the system is finished: every spawned task
        has exited (background timer/noise events don't keep the system
        alive), or there are no tasks and no deadline to run events for.
        """
        alive = any(task.alive for task in self.tasks.values())
        if self.tasks and not alive:
            return False
        next_event = self.events.peek_time()
        if next_event is None:
            if deadline is not None:
                # Nothing to do until the horizon: idle to it.
                self.clock.advance_to(max(self.now, deadline))
                return True
            if not self.tasks:
                return False
            # Tasks exist but nothing will ever wake them.
            raise KernelError("deadlock: sleeping tasks with no pending events")
        if not self.tasks and deadline is None:
            # Pure event load with no horizon: nothing meaningful to run.
            return False
        target = max(next_event, self.now)
        if deadline is not None and target > deadline:
            self.clock.advance_to(deadline)
            return True
        self.clock.advance_to(target)
        return True
