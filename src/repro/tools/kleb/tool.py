"""K-LEB as a :class:`~repro.tools.base.MonitoringTool`.

Non-intrusive (no source, no kernel patch — just a module), periodic,
and able to run at HRTimer rates (100 µs) rather than user-timer rates
(10 ms).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.control import AdaptiveController, ControlConfig
from repro.errors import ToolError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Task, TaskState
from repro.sim.clock import seconds
from repro.tools import costs
from repro.tools.base import MonitoringTool, SampleColumns, Session, ToolReport
from repro.tools.kleb.controller import ControllerState, KLebControllerProgram
from repro.tools.kleb.module import (KLebModule, KLebModuleConfig,
                                     SmpContext)


class KLebSession(Session):
    """Live K-LEB monitoring session."""

    def __init__(self, kernel: Kernel, module: KLebModule, victim: Task,
                 controller: Task, state: ControllerState,
                 events: Sequence[str], period_ns: int) -> None:
        self.kernel = kernel
        self.module = module
        self.victim = victim
        self.controller = controller
        self.state = state
        self.events = list(events)
        self.period_ns = period_ns

    def finalize(self) -> ToolReport:
        # Ask the controller to stop; let it drain the remaining
        # samples and issue the stop ioctl.
        self.state.stop_requested = True
        if self.controller.state is not TaskState.EXITED:
            self.kernel.run_until_exit(
                self.controller, deadline=self.kernel.now + seconds(10)
            )
        totals = dict(self.state.totals or {})
        stats = self.module.stats
        metadata_extra = {}
        control_rows = None
        ctrl = self.state.control
        if ctrl is not None:
            # Adaptive runs only: non-adaptive reports must stay
            # byte-identical to the committed golden digests.
            control_rows = ctrl.ledger.to_rows()
            metadata_extra.update({
                "adaptive_budget_percent": float(
                    ctrl.config.overhead_budget_percent),
                "adaptive_nominal_period_ns": float(ctrl.nominal_period_ns),
                "adaptive_final_period_ns": float(ctrl.period_ns),
                "adaptive_min_period_ns": float(ctrl.min_period_seen),
                "adaptive_max_period_ns": float(ctrl.max_period_seen),
                "adaptive_observations": float(ctrl.observations),
                "adaptive_degradations": float(ctrl.ledger.count("degrade")),
                "adaptive_recoveries": float(ctrl.ledger.count("recover")),
                "adaptive_boosts": float(ctrl.ledger.count("boost")),
                "adaptive_boost_releases": float(
                    ctrl.ledger.count("boost-release")),
                "adaptive_open_depth": float(ctrl.depth),
                "adaptive_final_level": float(ctrl.level),
                "adaptive_overhead_percent": float(
                    ctrl.overhead_percent_last
                    if ctrl.overhead_percent_last is not None else 0.0),
                "adaptive_samples_skipped": float(stats.samples_skipped),
                "adaptive_ioctls": float(self.state.adapt_ioctls),
                "adaptive_sensor_glitches": float(
                    self.state.sensor_glitches),
                "adaptive_frozen_observations": float(
                    self.state.frozen_observations),
            })
        if self.module.smp is not None:
            # SMP sessions only: single-core reports must stay
            # byte-identical to the committed golden digests.
            metadata_extra.update({
                "smp_cores": float(len(self.module.smp.kernels)),
                "smp_home_cpu": float(self.module.smp.home),
                "smp_migrations": float(stats.migrations),
            })
            for cpu, cpu_totals in enumerate(
                    self.module.final_totals_by_cpu or []):
                for name in sorted(cpu_totals):
                    metadata_extra[f"smp_cpu{cpu}:{name}"] = float(
                        cpu_totals[name])
        mux = self.state.mux_accounting
        if mux is not None:
            # Multiplexed runs only: non-multiplexed reports must stay
            # byte-identical to the pre-multiplexing golden digests.
            running = mux["time_running_cycles"]
            metadata_extra.update({
                "multiplex_groups": float(mux["groups"]),
                "multiplex_rotations": float(mux["rotations"]),
                "multiplex_enabled_cycles": float(mux["time_enabled_cycles"]),
                "multiplex_min_running_cycles": float(min(running) if running
                                                      else 0),
            })
        return ToolReport(
            tool="k-leb",
            events=self.events,
            period_ns=self.period_ns,
            samples=SampleColumns.from_batches(self.state.sample_batches),
            totals={name: float(value) for name, value in totals.items()},
            victim_wall_ns=self.victim.wall_time_ns or 0,
            victim_pid=self.victim.pid,
            metadata={
                "timer_fires": float(stats.timer_fires),
                "samples_dropped": float(self.module.buffer.dropped),
                "pause_episodes": float(self.module.buffer.pause_episodes),
                "log_bytes": float(self.state.log_bytes),
                # Degradation/recovery accounting — all zero on a
                # healthy run, populated under fault injection.
                "timer_misses": float(self.module.timer_misses_total),
                "ioctl_retries": float(self.state.ioctl_retries),
                "read_retries": float(self.state.read_retries),
                "recovery_reads": float(self.state.recovery_reads),
                "drain_shrinks": float(self.state.drain_shrinks),
                "drain_restores": float(self.state.drain_restores),
                "starved_cycles": float(self.state.starved_cycles),
                "injected_faults": float(
                    len(self.kernel.faults.ledger.records)
                ),
                **metadata_extra,
            },
            control=control_rows,
        )


class KLebTool(MonitoringTool):
    """The paper's tool: kernel-module HRTimer sampling."""

    name = "k-leb"
    requires_source = False
    # HRTimer floor, not a jiffy floor: 100x faster than perf (paper §III).
    min_period_ns = 100_000

    def __init__(self, buffer_capacity: int = 4096,
                 count_kernel: bool = False,
                 controller_nice: int = 0,
                 multiplex_period_ns: Optional[int] = None,
                 control: Optional[ControlConfig] = None) -> None:
        self.buffer_capacity = buffer_capacity
        self.count_kernel = count_kernel
        # De-prioritizing the controller demonstrates the paper's §III
        # starvation scenario: the module's back-pressure stop engages.
        self.controller_nice = controller_nice
        # perf-style group rotation: lets the event list exceed the
        # programmable counters at the cost of scaled (estimated) totals.
        self.multiplex_period_ns = multiplex_period_ns
        # When set, the controller closes the loop: adaptive period /
        # batch / rotation / skip control under this config's budget.
        self.control = control
        if control is not None:
            control.validate()

    def attach(self, kernel: Kernel, task: Task, events: Sequence[str],
               period_ns: int) -> KLebSession:
        period_ns = self.effective_period(period_ns)
        if "k_leb" in kernel.modules:
            module = kernel.get_module("k_leb")
            if not isinstance(module, KLebModule):  # pragma: no cover
                raise ToolError("module name collision on k_leb")
        else:
            module = kernel.load_module(KLebModule())
        return self._start_session(kernel, module, task, events, period_ns)

    def attach_cluster(self, cluster, task: Task, events: Sequence[str],
                       period_ns: int, home: int = 0) -> KLebSession:
        """Attach one tool instance to a whole SMP cluster.

        The module loads into the ``home`` core's kernel (where the
        victim was spawned and the controller runs, pinned there), but
        programs every core's PMU, registers kprobes on every core —
        including ``sched:migrate`` — and pools samples in a per-CPU
        ring, so a single session follows the victim across cores.
        """
        if self.multiplex_period_ns is not None:
            raise ToolError(
                "K-LEB: multiplexing is not supported on an SMP session")
        if self.control is not None:
            raise ToolError(
                "K-LEB: adaptive control is not supported on an SMP session")
        period_ns = self.effective_period(period_ns)
        kernel = cluster.kernel(home)
        if "k_leb" in kernel.modules:
            module = kernel.get_module("k_leb")
            if not isinstance(module, KLebModule) or module.smp is None:
                raise ToolError(
                    "k_leb already loaded on the home kernel without "
                    "SMP wiring")
        else:
            module = kernel.load_module(KLebModule(
                smp=SmpContext(kernels=tuple(cluster.kernels), home=home)))
        session = self._start_session(kernel, module, task, events,
                                      period_ns)
        # The controller never migrates: its ioctl/read loop drains the
        # merged ring from the home core (taskset semantics).
        session.controller.pinned = True
        return session

    def _start_session(self, kernel: Kernel, module: KLebModule, task: Task,
                       events: Sequence[str],
                       period_ns: int) -> KLebSession:
        """Spawn the controller that configures ``module`` and drains
        it for ``task`` — the body every attach flavour shares."""
        config = KLebModuleConfig(
            events=list(events),
            period_ns=period_ns,
            buffer_capacity=self.buffer_capacity,
            count_kernel=self.count_kernel,
            multiplex_period_ns=self.multiplex_period_ns,
        )
        state = ControllerState()
        cost_rng = kernel.rng.stream("tool-cost:k-leb")
        cost_factor = float(
            cost_rng.lognormal(0.0, costs.COST_SIGMA["k-leb"])
        )
        adaptive = None
        if self.control is not None:
            adaptive = AdaptiveController(
                self.control,
                nominal_period_ns=period_ns,
                multiplexed=self.multiplex_period_ns is not None,
                # The boost fast path may not outrun what the tool (or
                # the simulated hardware) can physically deliver.
                min_period_floor_ns=max(
                    self.min_period_ns,
                    kernel.config.hrtimer_min_period_ns,
                ),
            )
        controller_program = KLebControllerProgram(
            module=module,
            target_pid=task.pid,
            module_config=config,
            state=state,
            cost_factor=cost_factor,
            start_target=task.state is TaskState.SLEEPING,
            adaptive=adaptive,
        )
        controller = kernel.spawn(controller_program,
                                  nice=self.controller_nice)
        return KLebSession(
            kernel=kernel,
            module=module,
            victim=task,
            controller=controller,
            state=state,
            events=events,
            period_ns=period_ns,
        )
