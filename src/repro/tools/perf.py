"""perf analogues: ``perf stat`` (interval counting) and ``perf record``
(sampling).

Mechanisms modelled (paper §II-B/C, §V):

* **perf stat -I** wakes on a *user-space* timer — floored at the jiffy
  (10 ms) — and on every interval issues one read syscall per event
  plus an expensive formatted interval print.  When the events need
  more than one :func:`~repro.hw.schedule.plan_groups` group it
  time-multiplexes the groups and scales the counts
  (``count × time_enabled / time_running``), trading accuracy for
  coverage.
* **perf record** samples in kernel interrupt context (cheap per
  sample, no interval print), but reports *estimated* counts
  reconstructed from its sample file — it loses the tail between the
  last sample and process exit, the source of its small count
  deviation in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ToolError
from repro.hw import events as ev
from repro.hw import schedule
from repro.kernel.hrtimer import HrTimer
from repro.kernel.kernel import Kernel
from repro.kernel.process import Task, TaskState
from repro.sim.clock import seconds
from repro.tools import costs
from repro.tools.base import (
    CounterGate,
    IsolationGate,
    MonitoringTool,
    SampleColumns,
    Session,
    ToolReport,
    program_counters,
)
from repro.workloads.base import Block, Program, RateBlock, SyscallBlock


def _ns_to_instructions(kernel: Kernel, duration_ns: float) -> float:
    """User-space work equivalent of ``duration_ns`` at CPI 1."""
    return kernel.machine.core.ns_to_cycles(duration_ns)


# ---------------------------------------------------------------------------
# perf stat
# ---------------------------------------------------------------------------
@dataclass
class _PerfStatState:
    samples: SampleColumns
    totals: Dict[str, float] = field(default_factory=dict)
    intervals: int = 0
    done: bool = False


class _PerfStatProgram(Program):
    """The perf process: launch child, tick every interval, read, print.

    With ``interval_mode=False`` this is plain ``perf stat`` counting
    mode: sleep until the child exits, read once — overall statistics
    only, no time series, minimal overhead (paper §II-B).
    """

    def __init__(self, kernel: Kernel, gate: CounterGate, victim: Task,
                 events: Sequence[str], period_ns: int,
                 state: _PerfStatState, cost_factor: float,
                 multiplexer: Optional["_Multiplexer"],
                 interval_mode: bool = True) -> None:
        self.name = "perf-stat"
        self._kernel = kernel
        self._gate = gate
        self._victim = victim
        self._events = list(events)
        self._period_ns = period_ns
        self._state = state
        self._cost_factor = cost_factor
        self._multiplexer = multiplexer
        self._interval_mode = interval_mode

    def blocks(self) -> Iterator[Block]:
        kernel = self._kernel
        state = self._state
        # fork/exec of the monitored command + event parsing + mmap setup.
        yield RateBlock(
            instructions=_ns_to_instructions(kernel, costs.PERF_STAT_SETUP_NS),
            rates={"LOADS": 0.3, "STORES": 0.2, "BRANCHES": 0.15},
            label="perf-setup",
        )

        def do_enable(kernel_, task):
            if self._victim.state is TaskState.SLEEPING:
                kernel_.start_task(self._victim)
            return True

        yield SyscallBlock("ioctl", handler=do_enable, label="enable-on-exec")

        if not self._interval_mode:
            # Counting mode: wait for the child, then one final read.
            while self._gate.final_snapshot is None:
                yield SyscallBlock(
                    "nanosleep",
                    handler=lambda kernel_, task: kernel_.sleep_current(
                        self._period_ns
                    ),
                    label="waitpid-sleep",
                )

        read_holder: Dict[str, List[int]] = {}
        while self._interval_mode:
            yield SyscallBlock(
                "nanosleep",
                handler=lambda kernel_, task: kernel_.sleep_current(
                    self._period_ns
                ),
                label="interval-sleep",
            )

            def do_reads(kernel_, task):
                if state.intervals == 0:
                    kernel_.charge_kernel_time(
                        costs.PERF_STAT_FIRST_INTERVAL_NS
                    )
                kernel_.charge_kernel_time(int(
                    len(self._events)
                    * costs.PERF_STAT_READ_NS_PER_EVENT
                    * self._cost_factor
                ))
                if self._multiplexer is not None:
                    row = self._multiplexer.tick()
                else:
                    row = self._gate.row()
                read_holder["row"] = row
                return row

            yield SyscallBlock("read", handler=do_reads, label="interval-read")
            state.samples.append(kernel.now, read_holder.pop("row"))
            state.intervals += 1
            # Formatted interval print (stderr).
            yield RateBlock(
                instructions=_ns_to_instructions(
                    kernel,
                    costs.PERF_STAT_INTERVAL_PRINT_NS * self._cost_factor,
                ),
                rates={"LOADS": 0.35, "STORES": 0.25, "BRANCHES": 0.14},
                label="interval-print",
            )
            yield SyscallBlock("write", label="interval-write")
            if self._gate.final_snapshot is not None:
                break

        def do_final(kernel_, task):
            if self._multiplexer is not None:
                state.totals = self._multiplexer.finalize()
            else:
                state.totals = {
                    name: float(value)
                    for name, value in self._gate.totals().items()
                }
            state.done = True
            return state.totals

        yield SyscallBlock("read", handler=do_final, label="final-read")


class _Multiplexer:
    """Time-multiplexing of :func:`~repro.hw.schedule.plan_groups`'
    groups over the programmable counters.

    Rotates one group per interval tick; reported counts are perf's
    scaled estimates (:func:`~repro.hw.schedule.scaled_estimate`),
    which is where the estimation error comes from.  Each tick's sample row has one fixed
    schema, :attr:`names`: the fixed counters plus the cumulative raw
    (unscaled) count of every rotated event.
    """

    def __init__(self, kernel: Kernel, gate: CounterGate, victim: Task,
                 plan: schedule.GroupPlan) -> None:
        self.kernel = kernel
        self.gate = gate
        self.victim = victim
        self.plan = plan
        # The gate loaded group 0.
        self.active = 0
        self.raw: Dict[str, float] = {name: 0.0
                                      for name in plan.rotated_names}
        self.running_cpu: List[float] = [0.0] * len(plan.groups)
        self._group_start_cpu = float(victim.cpu_time_ns)
        self.names = ev.FIXED_EVENTS + plan.rotated_names

    def tick(self) -> List[int]:
        """Harvest the active group's counts, rotate, and return the
        sample row in :attr:`names` order."""
        pmu = self.kernel.pmu
        snapshot = pmu.snapshot(self.kernel.now).by_event
        for name, _ in self.plan.groups[self.active].programmable:
            self.raw[name] += snapshot[name]
        cpu_now = float(self.victim.cpu_time_ns)
        self.running_cpu[self.active] += cpu_now - self._group_start_cpu
        self._group_start_cpu = cpu_now
        # Loading the next group zeroes its counters for the new window.
        self.active = (self.active + 1) % len(self.plan.groups)
        pmu.load_assignment(self.plan.groups[self.active], user=True)
        return ([snapshot[name] for name in ev.FIXED_EVENTS]
                + [int(count) for count in self.raw.values()])

    def finalize(self) -> Dict[str, float]:
        """Exact fixed counts and scaled estimates of rotated events."""
        self.tick()  # harvest the final window
        enabled = float(self.victim.cpu_time_ns)
        snapshot = self.kernel.pmu.snapshot(self.kernel.now).by_event
        totals = {name: float(snapshot[name]) for name in ev.FIXED_EVENTS}
        for running, group in zip(self.running_cpu, self.plan.groups):
            for name, _ in group.programmable:
                totals[name] = schedule.scaled_estimate(
                    self.raw[name], enabled, running)
        return totals


class PerfStatSession(Session):
    def __init__(self, kernel: Kernel, victim: Task, controller: Task,
                 gate: CounterGate, state: _PerfStatState,
                 events: Sequence[str], period_ns: int,
                 multiplexed: bool) -> None:
        self.kernel = kernel
        self.victim = victim
        self.controller = controller
        self.gate = gate
        self.state = state
        self.events = list(events)
        self.period_ns = period_ns
        self.multiplexed = multiplexed

    def finalize(self) -> ToolReport:
        if self.controller.state is not TaskState.EXITED:
            self.kernel.run_until_exit(
                self.controller, deadline=self.kernel.now + seconds(10)
            )
        self.gate.detach()
        return ToolReport(
            tool="perf-stat",
            events=self.events,
            period_ns=self.period_ns,
            samples=self.state.samples,
            totals=dict(self.state.totals),
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={
                "intervals": float(self.state.intervals),
                "multiplexed": 1.0 if self.multiplexed else 0.0,
            },
        )


class PerfStatTool(MonitoringTool):
    """``perf stat`` — counting on a user-space timer.

    ``interval_mode=True`` (the default, ``perf stat -I``) produces the
    periodic series the paper compares against; ``interval_mode=False``
    is plain counting mode: overall statistics at exit only.
    """

    name = "perf-stat"
    min_period_ns = costs.PERF_MIN_PERIOD_NS

    def __init__(self, interval_mode: bool = True) -> None:
        self.interval_mode = interval_mode

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> PerfStatSession:
        period_ns = self.effective_period(period_ns)
        plan = schedule.plan_groups(events)
        multiplexed = plan.multiplexed
        gate = CounterGate(kernel, task,
                           plan.groups[0].names if multiplexed else events)
        cost_rng = kernel.rng.stream("tool-cost:perf-stat")
        cost_factor = float(cost_rng.lognormal(0.0,
                                               costs.COST_SIGMA["perf-stat"]))
        multiplexer = (
            _Multiplexer(kernel, gate, task, plan) if multiplexed else None
        )
        state = _PerfStatState(SampleColumns(
            gate.names if multiplexer is None else multiplexer.names))
        controller = kernel.spawn(_PerfStatProgram(
            kernel=kernel, gate=gate, victim=task, events=events,
            period_ns=period_ns, state=state, cost_factor=cost_factor,
            multiplexer=multiplexer, interval_mode=self.interval_mode,
        ))
        return PerfStatSession(
            kernel=kernel, victim=task, controller=controller, gate=gate,
            state=state, events=events, period_ns=period_ns,
            multiplexed=multiplexed,
        )


# ---------------------------------------------------------------------------
# perf record
# ---------------------------------------------------------------------------
class PerfRecordSession(Session):
    """Kernel-interrupt sampling attached to the victim's run state.

    Two sampling triggers, both real perf modes:

    * ``timer`` — a kernel timer fires every ``period_ns`` while the
      victim runs (the mode the paper's 10 ms comparison uses);
    * ``event`` — counter-overflow PMIs: the sampled event's counter is
      preset to wrap after ``event_period`` occurrences, so sampling
      density follows program *activity* rather than wall time.  Totals
      for the sampled event are reconstructed as
      ``samples x event_period`` — the classic perf estimate.
    """

    _WRAP = 1 << 48

    def __init__(self, kernel: Kernel, victim: Task, events: Sequence[str],
                 period_ns: int, cost_factor: float,
                 mode: str = "timer", event_period: int = 0) -> None:
        self.kernel = kernel
        self.victim = victim
        self.events = list(events)
        self.period_ns = period_ns
        self.cost_factor = cost_factor
        self.mode = mode
        self.event_period = event_period
        self.pmi_count = 0
        assignment = program_counters(kernel, self.events)
        self.samples = SampleColumns(kernel.pmu.counter_row()[0])
        self.timer = HrTimer(kernel, self._sample_fire, label="perf-record")
        if mode == "event":
            # Re-program the sampled event's counter with overflow
            # interrupts and preset it one period below the wrap.
            self.slot = assignment.slot_of(self.events[0])
            kernel.pmu.program_counter(self.slot, self.events[0], user=True,
                                       kernel=False,
                                       interrupt_on_overflow=True)
            kernel.pmu.write_counter(self.slot,
                                     self._WRAP - self.event_period)
            kernel.pmu.set_overflow_handler(self._pmi)
        self.gate = IsolationGate((kernel,), victim, begin=self._begin,
                                  pause=self._pause)

    # -- isolation gate callbacks ----------------------------------------
    def _begin(self, cpu: int) -> None:
        self.kernel.pmu.global_enable()
        if self.mode == "timer":
            self.timer.start(self.period_ns)

    def _pause(self, cpu: int) -> None:
        self.kernel.pmu.global_disable()
        self.timer.cancel()

    def _record_sample(self) -> None:
        self.kernel.charge_kernel_time(int(
            costs.PERF_RECORD_SAMPLE_NS * self.cost_factor
        ))
        self.samples.append(self.kernel.now, self.kernel.pmu.counter_row()[1])

    def _sample_fire(self, when: int) -> None:
        self._record_sample()

    def _pmi(self, indices: List[int]) -> None:
        """Overflow interrupt.  As real perf does, the handler re-arms
        the counter to ``-period``.  Delivery happens at execution-slice
        granularity (interrupt skid): when one slice crosses several
        periods, the handler reads how far past the wrap the counter
        ran and emits one sample per elapsed period, so period-based
        count reconstruction stays accurate."""
        if self.slot not in indices:
            return
        leftover = self.kernel.pmu.rdpmc(self.slot)
        elapsed_periods = 1 + int(leftover // self.event_period)
        for _ in range(elapsed_periods):
            self.pmi_count += 1
            self._record_sample()
        self.kernel.pmu.write_counter(
            self.slot,
            self._WRAP - self.event_period
            + int(leftover % self.event_period),
        )

    def finalize(self) -> ToolReport:
        self.gate.detach()
        if self.mode == "event":
            self.kernel.pmu.set_overflow_handler(None)
        # perf record reconstructs totals from its sample file: the
        # counts after the final sample are lost (Fig. 9's deviation).
        totals: Dict[str, float] = {}
        if self.samples:
            totals = {
                name: float(value)
                for name, value in self.samples[-1].values.items()
            }
        if self.mode == "event":
            # The sampled event's raw counter cycles through presets;
            # its total is the period-based estimate.
            totals[self.events[0]] = float(self.pmi_count * self.event_period)
        return ToolReport(
            tool="perf-record",
            events=self.events,
            period_ns=self.period_ns,
            samples=self.samples,
            totals=totals,
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={
                "timer_fires": float(self.timer.fires),
                "pmi_count": float(self.pmi_count),
                "event_mode": 1.0 if self.mode == "event" else 0.0,
            },
        )


class PerfRecordTool(MonitoringTool):
    """``perf record`` — sampling mode (timer- or event-period driven)."""

    name = "perf-record"
    min_period_ns = costs.PERF_MIN_PERIOD_NS

    def __init__(self, mode: str = "timer",
                 event_period: int = 2_000_000) -> None:
        if mode not in ("timer", "event"):
            raise ToolError(f"unknown perf record mode {mode!r}")
        if mode == "event" and event_period <= 0:
            raise ToolError("event period must be positive")
        self.mode = mode
        self.event_period = event_period

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> PerfRecordSession:
        if not events:
            raise ToolError("perf record needs at least one event")
        if (self.mode == "event"
                and ev.lookup(events[0]).fixed_counter is not None):
            raise ToolError(
                f"perf record samples {events[0]} by counter overflow, but "
                "the fixed counter it is pinned to raises no interrupt")
        period_ns = self.effective_period(period_ns)
        cost_rng = kernel.rng.stream("tool-cost:perf-record")
        cost_factor = float(
            cost_rng.lognormal(0.0, costs.COST_SIGMA["perf-record"])
        )
        kernel.charge_kernel_time(costs.PERF_RECORD_SETUP_NS)
        session = PerfRecordSession(kernel, task, events, period_ns,
                                    cost_factor, mode=self.mode,
                                    event_period=self.event_period)
        if task.state is TaskState.SLEEPING:
            kernel.start_task(task)
        return session
