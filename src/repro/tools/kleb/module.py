"""The K-LEB kernel module.

Implements the paper's process flow (Fig. 2):

1. ``ioctl`` passes in the initial PID, hardware events, and timer
   period; the module allocates its sample buffer.
2. While the monitored process runs, the HRTimer periodically fires a
   hardware interrupt whose handler reads the PMU and appends a sample
   row to the kernel buffer.
3. When the monitored process is scheduled out, kprobes on the context
   switch path stop the HRTimer and disable the counters (isolation);
   scheduling back in restarts both.
4. A stop ``ioctl`` (or the process exiting) ends collection.
5. The controller drains pooled samples via batched ``read`` calls.

The safety mechanism (§III): if the controller is starved and the
buffer fills, collection pauses until a drain frees space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ModuleError, ToolError, TransientModuleError
from repro.kernel.kprobes import ProbePoint
from repro.kernel.module import KernelModule
from repro.kernel.process import Task
from repro.kernel.ringbuffer import ColumnarRing, PerCpuRing
from repro.kernel.hrtimer import HrTimer
from repro.hw import events as ev
from repro.hw import schedule
from repro.hw.pmu import (COUNTER_WIDTH_BITS, NUM_PROGRAMMABLE,
                          RDPMC_FIXED_FLAG)
from repro.sim.clock import us
from repro.tools import costs

_COUNTER_WRAP = 1 << COUNTER_WIDTH_BITS


@dataclass
class KLebModuleConfig:
    """Configuration passed by the controller's first ioctl.

    ``events`` entries may be catalogue names (``"LLC_MISSES"``) or raw
    packed select/umask codes (``0x412E``) — the real K-LEB takes hex
    event codes on its command line, so both spellings are accepted and
    raw codes are resolved against the event catalogue.
    """

    events: Sequence[object] = ()
    period_ns: int = us(100)
    buffer_capacity: int = 4096
    count_kernel: bool = False
    # When set, event groups rotate round-robin every ``multiplex_period_ns``
    # of scheduled time (quantized to HRTimer fires) and totals become
    # perf-style scaled estimates; when ``None`` the event set must fit
    # the counters and behaviour is byte-identical to the classic module.
    multiplex_period_ns: Optional[int] = None

    def resolved_events(self) -> List[str]:
        """Event names with raw select/umask codes resolved."""
        names: List[str] = []
        for entry in self.events:
            if isinstance(entry, str):
                ev.lookup(entry)  # validates the name
                names.append(entry)
            else:
                names.append(ev.lookup_code(int(entry)).name)
        return names

    def validate(self) -> None:
        if not self.events:
            raise ToolError("K-LEB needs at least one hardware event")
        names = self.resolved_events()  # raises on unknown names or codes
        if self.multiplex_period_ns is None:
            programmable = schedule.programmable_count(names)
            if programmable > NUM_PROGRAMMABLE:
                raise ToolError(
                    f"K-LEB supports at most {NUM_PROGRAMMABLE} programmable "
                    f"events, got {programmable}; pass a multiplex "
                    f"period to rotate them"
                )
        else:
            if self.multiplex_period_ns < self.period_ns:
                raise ToolError(
                    f"K-LEB multiplex period ({self.multiplex_period_ns} ns) "
                    f"must be at least one timer period "
                    f"({self.period_ns} ns)"
                )
        if self.period_ns <= 0:
            raise ToolError("K-LEB period must be positive")
        if self.buffer_capacity <= 0:
            # Caught here at the tool layer, not as a KernelError from
            # the ring halfway through the config ioctl.
            raise ToolError(
                f"K-LEB buffer capacity must be positive, "
                f"got {self.buffer_capacity}"
            )
        # Surface an impossible counter constraint at validation time
        # (ScheduleError names the violating subset).
        if self.multiplex_period_ns is not None:
            schedule.plan_groups(names)
        else:
            schedule.assign_counters(names)


@dataclass
class KLebStats:
    """Collection statistics exposed by the module (sample-pool counts
    live in its ``buffer``, rotations in its ``mux``)."""

    timer_fires: int = 0
    handler_time_ns: int = 0
    # SMP accounting: CPU migrations of traced tasks observed via the
    # sched:migrate kprobe (the re-arm on the destination core rides
    # the ordinary switch-in probe).
    migrations: int = 0
    # Adaptive-control accounting: fires skipped on the sample-dropping
    # rung (gap accounting), and the drain-copy / rotation kernel time
    # the overhead sensor folds into its monitoring-cost fraction.
    samples_skipped: int = 0
    drain_copy_ns: int = 0
    rotate_ns: int = 0


@dataclass(frozen=True)
class KLebAdaptRequest:
    """Argument of the ``adapt`` ioctl: absolute target knob values.

    Absolute, not deltas, on purpose — a transient ioctl failure makes
    the controller retry the same request, and re-applying absolute
    targets is idempotent (a relative "shrink by 2" would double-apply).
    """

    period_ns: int
    skip_factor: int = 1
    rotate_slowdown: int = 1


@dataclass
class _MuxState:
    """Book-keeping for perf-style event-group rotation.

    ``raw`` accumulates each rotated event's observed count across its
    scheduled windows; ``enabled_cycles``/``running_cycles`` carry the
    time_enabled / time_running accounting that turns raw counts into
    scaled estimates at stop.  Time is measured on the fixed
    CORE_CYCLES counter rather than the wall clock: the fixed counter
    freezes exactly when the programmable counters freeze (victim
    descheduled, kernel-mode slices with ``count_kernel`` off), so the
    extrapolation base matches what the group could actually observe —
    wall-clock accounting (what perf's task-clock uses) charges
    interrupt-handler time to whichever group is active and skews the
    scaled estimates.

    ``raw`` is a list in ``plan.rotated_names`` order — the column
    order of the session's rows.  ``layouts`` holds, per group, its
    programmable slots and the ``raw`` positions of the events on them,
    computed once at config.  ``start`` holds the active group's counter
    values at the last harvest, aligned with its slots, so each window
    contributes a delta, with 48-bit wraps folded in exactly once via
    the PMU's read-and-clear overflow status.
    """

    plan: schedule.GroupPlan
    rotate_fires: int
    raw: List[float]
    running_cycles: List[int]
    layouts: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    start: List[int] = field(default_factory=list)
    active: int = 0
    fires_in_window: int = 0
    rotations: int = 0
    enabled_cycles: int = 0
    # CORE_CYCLES fixed-counter reading at the last harvest.
    cycles_mark: int = 0


@dataclass(frozen=True)
class SmpContext:
    """Cluster wiring for an SMP K-LEB session.

    ``kernels`` are the cluster's per-core kernels in cpu order;
    ``home`` is the cpu hosting the controller (the module itself is
    loaded into the home kernel).  The module always programs every
    session kernel's PMU identically, arms one HRTimer per kernel and
    registers its kprobes on every kernel (including
    ``sched:migrate``); a classic session is the one-kernel case.
    With a context the samples pool in a
    :class:`~repro.kernel.ringbuffer.PerCpuRing` — one tool instance
    following a migrating task across cores — and the report gains the
    ``smp_*`` metadata.
    """

    kernels: Sequence[object]
    home: int = 0


def _live_descendants(kernel, root_pid: int) -> set:
    """The root plus every live descendant, by ppid walk."""
    traced = {root_pid}
    frontier = [root_pid]
    while frontier:
        parent_pid = frontier.pop()
        parent = kernel.task(parent_pid)
        for child_pid in parent.children:
            child = kernel.tasks.get(child_pid)
            if child is not None and child.alive and child_pid not in traced:
                traced.add(child_pid)
                frontier.append(child_pid)
    return traced


class KLebModule(KernelModule):
    """Kernel-space collection engine (paper Fig. 1, left half)."""

    name = "k_leb"

    def __init__(self, smp: Optional[SmpContext] = None) -> None:
        super().__init__()
        self.smp = smp
        self.config: Optional[KLebModuleConfig] = None
        self.buffer: Optional[Union[ColumnarRing, PerCpuRing]] = None
        # Per-cpu views, indexed by cpu: the session's kernels and
        # their HRTimers.  A classic session has exactly one of each.
        self._kernels: Sequence[object] = ()
        self.timers: Optional[List[HrTimer]] = None
        self.final_totals_by_cpu: Optional[List[Dict[str, int]]] = None
        self.traced_pids: set = set()
        self.root_pid: Optional[int] = None
        self.collecting = False
        self.stats = KLebStats()
        self.final_totals: Optional[Dict[str, int]] = None
        self.mux: Optional[_MuxState] = None
        self._probe_handles: List = []
        # Adaptive-control knobs (the adapt ioctl retunes these; the
        # defaults make non-adaptive runs bit-identical to the classic
        # module).
        self.active_period_ns = 0
        self.skip_factor = 1
        self.rotate_slowdown = 1
        self._squeeze_armed = False

    # ------------------------------------------------------------------
    # Module lifecycle
    # ------------------------------------------------------------------
    def on_load(self, kernel) -> None:
        context = self.smp or SmpContext(kernels=(kernel,))
        self._kernels = tuple(context.kernels)
        # The fault plan is frozen, so whether a fire can ever squeeze
        # the ring is known now; an inert fire path makes no squeeze call.
        self._squeeze_armed = kernel.faults.plan.squeeze_prob > 0
        # One HRTimer per core, each bound to its own kernel so fires
        # charge interrupt time (and draw jitter) on the right cpu.
        # The home timer keeps the classic label.
        self.timers = [
            HrTimer(cpu_kernel, partial(self._timer_fire, cpu=cpu),
                    label=("k-leb" if cpu == context.home
                           else f"k-leb:cpu{cpu}"))
            for cpu, cpu_kernel in enumerate(self._kernels)
        ]

    def on_unload(self) -> None:
        if self.collecting:
            self._stop_collection()
        self.timers = None

    @property
    def timer_misses_total(self) -> int:
        """Missed-deadline count across every armed timer (all cpus)."""
        return sum(timer.counts.missed for timer in self.timers or ())

    # ------------------------------------------------------------------
    # ioctl interface (what the controller calls)
    # ------------------------------------------------------------------
    def ioctl(self, command: str, argument: object = None) -> object:
        if self.kernel.faults.ioctl_fails(command, self.kernel.now):
            # Injected transient device failure: the call fails before
            # touching module state, so a retry is always safe.
            raise TransientModuleError(
                f"K-LEB: transient ioctl({command!r}) failure (injected)"
            )
        if command == "config":
            return self._ioctl_config(argument)
        if command == "start":
            return self._ioctl_start(argument)
        if command == "stop":
            return self._ioctl_stop()
        if command == "adapt":
            return self._ioctl_adapt(argument)
        if command == "stats":
            # A copy: handing out the live mutable stats object would
            # let user space race the interrupt handler's updates.
            return replace(self.stats)
        raise ModuleError(f"K-LEB: unknown ioctl {command!r}")

    def _ioctl_config(self, argument: object) -> bool:
        if not isinstance(argument, KLebModuleConfig):
            raise ModuleError("K-LEB config ioctl needs a KLebModuleConfig")
        argument.validate()
        if self.collecting:
            raise ModuleError("K-LEB: cannot reconfigure while collecting")
        if self.smp is not None and argument.multiplex_period_ns is not None:
            # Rotation state is per-PMU; rotating N PMUs in lockstep is
            # out of scope for the SMP session.
            raise ToolError(
                "K-LEB: multiplexing is not supported on an SMP session")
        # Resource setup: buffer allocation, PMU programming.
        self.kernel.charge_kernel_time(costs.KLEB_SETUP_NS)
        self.config = argument
        # Reset the adaptive knobs to their pass-through defaults: a
        # fresh config starts at the nominal period with no skipping.
        self.active_period_ns = argument.period_ns
        self.skip_factor = 1
        self.rotate_slowdown = 1
        pmu = self.kernel.pmu
        pmu.reset_counters()
        if argument.multiplex_period_ns is not None:
            plan = schedule.plan_groups(argument.resolved_events())
            position = {name: index
                        for index, name in enumerate(plan.rotated_names)}
            self.mux = _MuxState(
                plan=plan,
                rotate_fires=max(1, round(argument.multiplex_period_ns
                                          / argument.period_ns)),
                raw=[0.0] * len(plan.rotated_names),
                running_cycles=[0] * len(plan.groups),
                layouts=[(tuple(slot for _, slot in group.programmable),
                          tuple(position[name]
                                for name, _ in group.programmable))
                         for group in plan.groups],
            )
            self._mux_program_active(preload_faults=True)
        else:
            # The constraint scheduler degenerates to the historical
            # positional layout when every event allows every counter,
            # so this path stays bit-identical for the legacy catalogue.
            # Every core gets the same slots, so counter rows share one
            # schema; fault preloads stay on the home core only.
            self.mux = None
            assignment = schedule.assign_counters(argument.resolved_events())
            for cpu_kernel in self._kernels:
                cpu_pmu = cpu_kernel.pmu
                if cpu_pmu is not pmu:
                    cpu_pmu.reset_counters()
                cpu_pmu.load_assignment(assignment, user=True,
                                        kernel=argument.count_kernel)
            self._preload_faults(assignment)
        for cpu_kernel in self._kernels:
            cpu_kernel.pmu.enable_fixed(user=True,
                                        kernel=argument.count_kernel)
            cpu_kernel.pmu.global_disable()
        # Fixed row layout for the whole session: the columnar ring is
        # allocated against it and the interrupt handler pushes typed
        # rows, never dicts.  A multiplexed row is the fixed counters
        # plus the cumulative raw count of every rotated event, so
        # rotation never changes its schema.
        if self.mux is not None:
            row_names = ev.FIXED_EVENTS + self.mux.plan.rotated_names
        else:
            row_names, _ = pmu.counter_row()
        if self.smp is not None:
            # One private ring per core (capacity each), merged in
            # timestamp order at drain time.
            self.buffer = PerCpuRing(argument.buffer_capacity, row_names,
                                     cpus=len(self._kernels))
        else:
            self.buffer = ColumnarRing(argument.buffer_capacity, row_names)
        return True

    def _ioctl_start(self, argument: object) -> bool:
        if self.config is None or self.buffer is None:
            raise ModuleError("K-LEB: start before config")
        if self.collecting:
            raise ModuleError("K-LEB: already collecting")
        pid = int(argument)  # raises on garbage, as the real ioctl would
        target = self.kernel.task(pid)  # validate the PID exists
        if not target.alive:
            raise ModuleError(f"K-LEB: pid {pid} is not alive")
        self.root_pid = pid
        # Trace the whole existing process tree (the paper's pid/ppid/
        # name bookkeeping): children forked before the start ioctl —
        # e.g. a container already spawned by its shim — are included.
        self.traced_pids = _live_descendants(self.kernel, pid)
        self.final_totals = None
        self.final_totals_by_cpu = None
        self.stats = KLebStats()
        # Probes on *every* core: the traced task may run (and exit)
        # anywhere, and sched:migrate fires on the destination core so
        # counting follows the task.
        self._probe_handles = []
        for cpu, cpu_kernel in enumerate(self._kernels):
            probes = cpu_kernel.kprobes
            for point, handler in (
                (ProbePoint.SCHED_SWITCH_IN, self._switch_in(cpu)),
                (ProbePoint.SCHED_SWITCH_OUT, self._switch_out(cpu)),
                (ProbePoint.SCHED_MIGRATE, self._migrated),
                (ProbePoint.PROCESS_FORK, self._fork),
                (ProbePoint.PROCESS_EXIT, self._exit),
            ):
                self._probe_handles.append(
                    (probes, probes.register(point, handler)))
        self.collecting = True
        # If the monitored task is already on a CPU, begin right away.
        for cpu, cpu_kernel in enumerate(self._kernels):
            current = cpu_kernel.scheduler.current
            if current is not None and current.pid in self.traced_pids:
                self._begin_counting(cpu)
        return True

    def _ioctl_stop(self) -> Dict[str, int]:
        if not self.collecting:
            raise ModuleError("K-LEB: not collecting")
        self._stop_collection()
        return dict(self.final_totals or {})

    def _ioctl_adapt(self, argument: object) -> bool:
        """Retune the sampling knobs mid-collection (adaptive control).

        Applies the request's absolute targets; safe to retry after a
        transient failure (the fault hook fires before any state is
        touched, and absolute targets re-apply idempotently).
        """
        if not isinstance(argument, KLebAdaptRequest):
            raise ModuleError("K-LEB adapt ioctl needs a KLebAdaptRequest")
        if self.config is None:
            raise ModuleError("K-LEB: adapt before config")
        if argument.period_ns < self.kernel.config.hrtimer_min_period_ns:
            raise ModuleError(
                f"K-LEB: adapt period {argument.period_ns}ns below "
                f"hardware floor {self.kernel.config.hrtimer_min_period_ns}ns"
            )
        if argument.skip_factor < 1 or argument.rotate_slowdown < 1:
            raise ModuleError(
                "K-LEB: adapt skip_factor and rotate_slowdown must be >= 1"
            )
        self.kernel.charge_kernel_time(costs.KLEB_ADAPT_NS)
        self.active_period_ns = int(argument.period_ns)
        self.skip_factor = int(argument.skip_factor)
        self.rotate_slowdown = int(argument.rotate_slowdown)
        for timer in self.timers or ():
            # In place if running; an inactive timer (victim switched
            # out, or paused on back-pressure) just stores the new
            # period and picks it up on the next switch-in.
            if timer.period_ns != self.active_period_ns:
                timer.reprogram(self.active_period_ns)
        return True

    # ------------------------------------------------------------------
    # Device read (controller drains samples)
    # ------------------------------------------------------------------
    def read(self, max_items: Optional[int] = None):
        """Drain pooled samples as one :class:`SampleColumns` (an SMP
        session's batch is merged across cores and carries a trailing
        ``cpu`` column)."""
        if self.buffer is None:
            raise ModuleError("K-LEB: read before config")
        if max_items is not None and max_items < 0:
            # An empty batch here would read as "no samples pending"
            # and silently mask the caller's bug.
            raise ModuleError(
                f"K-LEB: read max_items must be non-negative, "
                f"got {max_items}"
            )
        if self.kernel.faults.read_fails(self.kernel.now):
            raise TransientModuleError(
                "K-LEB: transient read failure (injected)"
            )
        batch = self.buffer.drain(max_items)
        if batch:
            # copy_to_user of the sample rows.
            copy_ns = len(batch) * costs.KLEB_DRAIN_COPY_NS_PER_SAMPLE
            self.kernel.charge_kernel_time(copy_ns)
            self.stats.drain_copy_ns += copy_ns
        return batch

    @property
    def pending_samples(self) -> int:
        return len(self.buffer) if self.buffer is not None else 0

    # ------------------------------------------------------------------
    # kprobe handlers: per-PID isolation (paper Fig. 3)
    # ------------------------------------------------------------------
    def _switch_in(self, cpu: int):
        def handler(task: Task) -> None:
            if self.collecting and task.pid in self.traced_pids:
                self._begin_counting(cpu)
        return handler

    def _switch_out(self, cpu: int):
        def handler(task: Task) -> None:
            if self.collecting and task.pid in self.traced_pids:
                self._pause_counting(cpu)
        return handler

    def _migrated(self, task: Task, src_cpu: int, dst_cpu: int) -> None:
        # Fires on the destination core; the actual re-arm (timer +
        # counter enable on dst) rides that core's switch-in probe when
        # the task is next dispatched.
        if self.collecting and task.pid in self.traced_pids:
            self.stats.migrations += 1

    def _fork(self, parent: Task, child: Task) -> None:
        # Trace the whole process tree: name/pid/ppid bookkeeping.
        if self.collecting and parent.pid in self.traced_pids:
            self.traced_pids.add(child.pid)

    def _exit(self, task: Task) -> None:
        if not self.collecting or task.pid not in self.traced_pids:
            return
        if task.pid == self.root_pid:
            self._stop_collection()
        else:
            self.traced_pids.discard(task.pid)

    # ------------------------------------------------------------------
    # Counting control
    # ------------------------------------------------------------------
    def _begin_counting(self, cpu: int) -> None:
        assert self.config is not None and self.timers is not None
        self._kernels[cpu].pmu.global_enable()
        # The adapt ioctl may have retuned the period since config;
        # equals config.period_ns when the controller never adapted.
        self.timers[cpu].start(self.active_period_ns or self.config.period_ns)

    def _pause_counting(self, cpu: int) -> None:
        assert self.timers is not None
        self.timers[cpu].cancel()
        if self.mux is not None:
            # Harvest the partial window before the counters freeze so
            # drained samples stay fresh across descheduled stretches.
            self._mux_harvest()
        self._kernels[cpu].pmu.global_disable()

    def _stop_collection(self) -> None:
        for timer in self.timers or ():
            timer.cancel()
        if self.mux is not None:
            self._mux_harvest()
            self.final_totals = self._mux_totals()
            self.kernel.pmu.global_disable()
        else:
            # Per-cpu snapshots, summed in cpu order: over one kernel
            # the sum is that kernel's snapshot, in the same order.
            totals_by_cpu: List[Dict[str, int]] = []
            merged: Dict[str, int] = {}
            for cpu_kernel in self._kernels:
                snapshot = dict(
                    cpu_kernel.pmu.snapshot(cpu_kernel.now).by_event)
                cpu_kernel.pmu.global_disable()
                totals_by_cpu.append(snapshot)
                for name, value in snapshot.items():
                    merged[name] = merged.get(name, 0) + value
            self.final_totals_by_cpu = totals_by_cpu
            self.final_totals = merged
        for probes, handle in self._probe_handles:
            probes.unregister(handle)
        self._probe_handles = []
        self.collecting = False

    def _preload_faults(self, assignment: schedule.CounterAssignment) -> None:
        """Fault injection: start the home core's assigned counters near
        the 48-bit ceiling, so they wrap mid-run and downstream analysis
        must cope with the discontinuity."""
        pmu = self.kernel.pmu
        for _, slot in assignment.programmable:
            preload = self.kernel.faults.counter_preload(slot,
                                                         self.kernel.now)
            if preload is not None:
                pmu.write_counter(slot, preload)

    # ------------------------------------------------------------------
    # Time-multiplexing engine (perf-style round-robin rotation)
    # ------------------------------------------------------------------
    def _mux_program_active(self, preload_faults: bool = False) -> None:
        """Load the active group's assignment onto the PMU."""
        assert self.mux is not None and self.config is not None
        mux = self.mux
        pmu = self.kernel.pmu
        group = mux.plan.groups[mux.active]
        pmu.load_assignment(group, user=True,
                            kernel=self.config.count_kernel)
        if preload_faults:
            self._preload_faults(group)
        # Fresh window: deltas restart from the just-written values.
        slots, _ = mux.layouts[mux.active]
        mux.start = [pmu.rdpmc(slot) for slot in slots]

    def _mux_harvest(self) -> List[int]:
        """Fold the active group's counter deltas into the raw tallies
        and return the fixed counter values read with them.

        One :meth:`~repro.hw.pmu.Pmu.read_counters` call reads the fixed
        counters, the active group's slots and their overflow bits.
        Each 48-bit wrap is folded in exactly once: that read clears
        the status bits it returns, and counter *writes* (the re-arm on
        rotation, fault preloads) cancel any undelivered overflow for
        the slot — so a wrap preload landing in a group that rotates
        out before its PMI drains cannot double-deliver.
        """
        assert self.mux is not None
        mux = self.mux
        slots, positions = mux.layouts[mux.active]
        fixed, values, overflow = self.kernel.pmu.read_counters(slots)
        cycles = fixed[1]  # CORE_CYCLES
        elapsed = cycles - mux.cycles_mark
        if elapsed > 0:
            mux.enabled_cycles += elapsed
            mux.running_cycles[mux.active] += elapsed
        mux.cycles_mark = cycles
        raw = mux.raw
        for slot, position, value, start in zip(slots, positions, values,
                                                mux.start):
            delta = value - start
            if delta < 0 and overflow >> slot & 1:
                delta += _COUNTER_WRAP
            if delta:
                raw[position] += delta
        mux.start = values
        return fixed

    def _mux_window_done(self) -> bool:
        """Count one fire toward the active group's window; True once
        the window is complete and the groups should rotate.

        The rotation-slowed ladder rung stretches each window by
        ``rotate_slowdown`` (1 when not adapted).
        """
        assert self.mux is not None
        mux = self.mux
        if len(mux.plan.groups) < 2:
            return False
        mux.fires_in_window += 1
        return mux.fires_in_window >= mux.rotate_fires * self.rotate_slowdown

    def _mux_rotate(self) -> None:
        """Advance to the next group (called after a harvest)."""
        assert self.mux is not None
        mux = self.mux
        mux.active = (mux.active + 1) % len(mux.plan.groups)
        mux.fires_in_window = 0
        mux.rotations += 1
        # Reprogramming four event-select registers from interrupt
        # context is the real cost of multiplexing at HRTimer rates.
        self.kernel.charge_kernel_time(costs.KLEB_ROTATE_NS)
        self.stats.rotate_ns += costs.KLEB_ROTATE_NS
        self._mux_program_active()

    def _mux_totals(self) -> Dict[str, int]:
        """Final totals: exact fixed counts, scaled rotated estimates."""
        assert self.mux is not None
        mux = self.mux
        pmu = self.kernel.pmu
        totals: Dict[str, int] = {}
        for index, event_name in enumerate(ev.FIXED_EVENTS):
            totals[event_name] = pmu.rdpmc(index | RDPMC_FIXED_FLAG)
        for group, (_, positions), running in zip(
                mux.plan.groups, mux.layouts, mux.running_cycles):
            for (name, _), position in zip(group.programmable, positions):
                totals[name] = int(round(schedule.scaled_estimate(
                    mux.raw[position], mux.enabled_cycles, running)))
        return totals

    # ------------------------------------------------------------------
    # HRTimer interrupt handler
    # ------------------------------------------------------------------
    def _timer_fire(self, when: int, cpu: int) -> None:
        """One core's HRTimer interrupt: read that core's PMU and push
        one row into that core's ring (interrupt time is charged on
        ``cpu``'s kernel)."""
        if not self.collecting:
            return
        kernel = self._kernels[cpu]
        stats = self.stats
        mux = self.mux
        stats.timer_fires += 1
        if stats.timer_fires == 1:
            # Lazy one-time work on the first fire: buffer page faults,
            # module-path cache warmup.
            kernel.charge_kernel_time(costs.KLEB_FIRST_FIRE_NS)
        if self.skip_factor > 1 and stats.timer_fires % self.skip_factor != 0:
            # Sample-dropping ladder rung: the handler enters, checks
            # the skip counter, and bails without touching the PMU or
            # the buffer.  The gap is accounted (samples_skipped) so
            # downstream analysis can distinguish dropped-by-policy
            # from lost-to-pressure.  Rotation fires still tick so a
            # multiplexed session keeps cycling its groups.
            kernel.charge_kernel_time(costs.KLEB_SKIP_FIRE_NS)
            stats.handler_time_ns += costs.KLEB_SKIP_FIRE_NS
            stats.samples_skipped += 1
            if mux is not None and self._mux_window_done():
                self._mux_harvest()
                self._mux_rotate()
            return
        kernel.charge_kernel_time(costs.KLEB_HANDLER_NS)
        stats.handler_time_ns += costs.KLEB_HANDLER_NS
        buffer = self.buffer
        assert buffer is not None
        if self._squeeze_armed:
            # Fault injection: memory pressure may squeeze the sample
            # pool's effective capacity for a window of fires.
            squeezed = kernel.faults.squeeze_capacity(buffer.capacity,
                                                      kernel.now)
            if squeezed is not None:
                buffer.squeeze(squeezed)
            else:
                buffer.unsqueeze()
        if mux is not None:
            # Fixed counters, then the cumulative raw count of every
            # rotated event (descheduled events hold still) — the
            # column order of a multiplexed session's ring.
            row = self._mux_harvest()
            row.extend(map(int, mux.raw))
        else:
            # One typed row straight into the ring's preallocated
            # columns — no snapshot dict, no Sample object.
            _, row = kernel.pmu.counter_row()
        # Safety mechanism: a full buffer (controller starved) refuses
        # the row, counts the drop and pauses collection until a drain.
        if self.smp is None:
            buffer.push_row(kernel.now, row)
        else:
            buffer.push_row(cpu, kernel.now, row)
        if mux is not None and self._mux_window_done():
            self._mux_rotate()
