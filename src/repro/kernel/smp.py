"""First-class SMP substrate: per-core kernels under one topology.

The paper's scheduling and contention claims (§II-C, §IV-B) are
inherently multi-core — workloads on *different cores* contend for the
shared last-level cache.  This module composes single-core
(machine, kernel) pairs into an :class:`SmpCluster` under a
:class:`~repro.hw.machine.Topology`:

* one :class:`~repro.hw.machine.Machine` (private MSR file, PMU,
  L1/L2) per core, front-ending a per-socket shared LLC;
* one :class:`~repro.hw.uncore.UncorePmu` per socket, fed each
  lockstep window from its LLC's miss traffic;
* deterministic, seeded CPU migration: a
  :class:`~repro.kernel.scheduler.MigrationPolicy` consulted at
  quantum boundaries, with the ``SCHED_MIGRATE`` kprobe fired on the
  destination core so K-LEB re-arms where the task lands.

Cores advance in lockstep time windows; the window bounds cross-core
clock skew (default 100 µs — well under the scheduler quantum and the
cache-reuse timescales that matter).  A single-core cluster is
behaviourally identical to a bare :class:`~repro.kernel.kernel.Kernel`:
no migration hook is installed and no extra RNG stream is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.faults.inject import FaultInjector
from repro.hw.machine import MachineConfig, SmpMachine, Topology
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.kprobes import ProbePoint
from repro.kernel.process import Task
from repro.kernel.scheduler import MigrationPolicy
from repro.sim.clock import us
from repro.sim.rng import RngStreams
from repro.workloads.base import Program

DEFAULT_WINDOW_NS = us(100)

#: Pid-space stride between cores so one task table could merge the
#: per-core tables without collisions (core 0 keeps the classic 1000
#: base, so single-core clusters are bit-identical to a bare kernel).
_PID_STRIDE = 10_000


class SmpCluster:
    """N per-core kernels sharing per-socket LLCs, advanced in lockstep.

    Args:
        cores: total cores (spread evenly across ``sockets``).
        machine_config: per-core machine geometry (default i7-920).
        kernel_config: per-core kernel config (default: OS noise off,
            so contention effects are not drowned in noise).
        seed: master seed; each core gets a forked RNG and migration
            gets its own named stream.
        sockets: number of sockets; ``cores`` must divide evenly.
        window_ns: lockstep window (bounds cross-core clock skew).
            Validated here — a non-positive window would silently
            desynchronize the cluster.
        migrate: enable the seeded migrate-on-quantum policy.
        migrate_probability: per-quantum-boundary migration chance.
        faults: optional fault injector shared by every core's kernel.
    """

    def __init__(self, cores: int = 2,
                 machine_config: Optional[MachineConfig] = None,
                 kernel_config: Optional[KernelConfig] = None,
                 seed: int = 0,
                 *,
                 sockets: int = 1,
                 window_ns: int = DEFAULT_WINDOW_NS,
                 migrate: bool = False,
                 migrate_probability: float = 0.25,
                 faults: Optional[FaultInjector] = None) -> None:
        if cores < 1:
            raise ExperimentError("a cluster needs at least one core")
        if sockets < 1:
            raise ExperimentError("a cluster needs at least one socket")
        if cores % sockets:
            raise ExperimentError(
                f"cores ({cores}) must divide evenly across "
                f"sockets ({sockets})")
        if window_ns <= 0:
            raise ExperimentError(
                f"lockstep window must be positive, got {window_ns}")
        config = machine_config or i7_920()
        if len(config.cache_levels) < 2:
            raise ExperimentError(
                "shared-LLC clustering needs private levels plus an LLC"
            )
        self.config = config
        self.window_ns = window_ns
        self.topology = Topology(sockets=sockets,
                                 cores_per_socket=cores // sockets)
        self.smp = SmpMachine(config, self.topology)
        self.llcs = self.smp.llcs
        self.uncores = self.smp.uncores
        self.kernels: List[Kernel] = []
        base_rng = RngStreams(seed)
        for cpu in range(cores):
            kernel = Kernel(
                self.smp.machine(cpu),
                config=kernel_config or KernelConfig(noise_enabled=False),
                rng=base_rng.fork(cpu + 1),
                faults=faults,
            )
            kernel.scheduler.cpu = cpu
            kernel._next_pid = 1000 + cpu * _PID_STRIDE
            self.kernels.append(kernel)
        self.migrations = 0
        self._policy: Optional[MigrationPolicy] = None
        if migrate and cores >= 2:
            self._policy = MigrationPolicy(
                cores, base_rng.stream("smp-migration"),
                probability=migrate_probability)
            for cpu, kernel in enumerate(self.kernels):
                kernel.scheduler.migration = self._make_migration_hook(cpu)
        # Per-socket (misses, lookups) marks for uncore window deltas.
        self._llc_marks: List[Tuple[int, int]] = [
            (0, 0) for _ in range(self.topology.sockets)
        ]

    # ------------------------------------------------------------------
    @property
    def cores(self) -> int:
        return len(self.kernels)

    def kernel(self, core: int) -> Kernel:
        try:
            return self.kernels[core]
        except IndexError:
            raise ExperimentError(
                f"no core {core} in a {self.cores}-core cluster"
            ) from None

    def spawn(self, core: int, program: Program, **kwargs) -> Task:
        """Spawn ``program`` on the given core's kernel."""
        return self.kernel(core).spawn(program, **kwargs)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _make_migration_hook(self, cpu: int):
        policy = self._policy

        def hook(kernel: Kernel) -> bool:
            scheduler = kernel.scheduler
            task = scheduler.current
            # Gate *before* drawing randomness: pinned tasks and
            # unexpired quanta must not perturb the decision stream.
            if task is None or task.pinned:
                return False
            if kernel.now < scheduler.slice_start + scheduler.quantum_ns:
                return False
            dst = policy.pick_destination(cpu)
            if dst is None:
                return False
            self._migrate(kernel, cpu, dst, task)
            return True

        return hook

    def _migrate(self, src_kernel: Kernel, src: int, dst: int,
                 task: Task) -> None:
        """Move the running task from ``src`` to ``dst``.

        Mirrors the preemption path (context-switch charge, switch-out
        probe) on the source, then hands the task to the destination
        synchronously: it lands RUNNABLE on the destination run queue
        and the ``SCHED_MIGRATE`` probe fires on the *destination*
        kernel, which is where K-LEB must re-arm.  Cross-core clock
        skew at the hand-off is bounded by the lockstep window.
        """
        src_kernel._charge_context_switch()
        src_kernel.scheduler.migrate_current_away()
        del src_kernel.tasks[task.pid]
        dst_kernel = self.kernels[dst]
        dst_kernel.tasks[task.pid] = task
        dst_kernel.kprobes.fire(ProbePoint.SCHED_MIGRATE, task, src, dst)
        dst_kernel.scheduler.enqueue(task)
        self.migrations += 1

    # ------------------------------------------------------------------
    # Lockstep run loop
    # ------------------------------------------------------------------
    def _window(self, window_ns: Optional[int]) -> int:
        if window_ns is None:
            return self.window_ns
        if window_ns <= 0:
            raise ExperimentError(
                f"lockstep window must be positive, got {window_ns}")
        return window_ns

    def _advance_window(self, horizon: int) -> None:
        for kernel in self.kernels:
            if kernel.now < horizon:
                kernel.run(deadline=horizon)

    def _sample_uncore(self, elapsed_ns: int) -> None:
        for socket in range(self.topology.sockets):
            llc = self.llcs[socket]
            misses, lookups = llc.misses, llc.hits + llc.misses
            prev_misses, prev_lookups = self._llc_marks[socket]
            self._llc_marks[socket] = (misses, lookups)
            self.uncores[socket].advance_window(
                elapsed_ns, misses - prev_misses, lookups - prev_lookups)

    def run(self, deadline_ns: int,
            window_ns: Optional[int] = None) -> None:
        """Advance every core in lockstep windows up to ``deadline_ns``."""
        window_ns = self._window(window_ns)
        horizon = min(kernel.now for kernel in self.kernels)
        while horizon < deadline_ns:
            previous = horizon
            horizon = min(horizon + window_ns, deadline_ns)
            self._advance_window(horizon)
            self._sample_uncore(horizon - previous)

    def run_until_tasks_exit(self, tasks: Sequence[Task],
                             deadline_ns: int,
                             window_ns: Optional[int] = None) -> None:
        """Lockstep-advance until every listed task has exited."""
        window_ns = self._window(window_ns)
        horizon = min(kernel.now for kernel in self.kernels)
        while any(task.alive for task in tasks):
            if horizon >= deadline_ns:
                alive = [task.name for task in tasks if task.alive]
                raise ExperimentError(
                    f"cluster deadline reached with tasks alive: {alive}"
                )
            previous = horizon
            horizon = min(horizon + window_ns, deadline_ns)
            self._advance_window(horizon)
            self._sample_uncore(horizon - previous)

    def max_skew_ns(self) -> int:
        """Current clock skew between the fastest and slowest core."""
        times = [kernel.now for kernel in self.kernels]
        return max(times) - min(times)


@dataclass(frozen=True)
class ParallelCorunResult:
    """Contention outcome for one program in a parallel co-run."""

    name: str
    core: int
    solo_wall_ns: int
    corun_wall_ns: int

    @property
    def slowdown(self) -> float:
        """Wall-time inflation from sharing the LLC.

        There is no time-slicing: every core is dedicated, so any
        slowdown IS cache contention.
        """
        if self.solo_wall_ns <= 0:
            raise ExperimentError(f"{self.name}: empty solo run")
        return self.corun_wall_ns / self.solo_wall_ns


def corun_parallel(programs: Sequence[Program],
                   machine_config: Optional[MachineConfig] = None,
                   seed: int = 0,
                   deadline_ns: int = 2_000_000_000
                   ) -> List[ParallelCorunResult]:
    """Run each program on its own core of a shared-LLC cluster.

    Returns per-program results with solo-vs-corun wall times; the solo
    baseline runs each program alone on an identical single-core
    cluster (same private caches, unshared LLC).
    """
    if len(programs) < 2:
        raise ExperimentError("parallel co-run needs at least two programs")
    solo_walls: List[int] = []
    for index, program in enumerate(programs):
        cluster = SmpCluster(cores=1, machine_config=machine_config,
                             seed=seed)
        task = cluster.spawn(0, program)
        cluster.run_until_tasks_exit([task], deadline_ns)
        solo_walls.append(task.wall_time_ns or 0)

    cluster = SmpCluster(cores=len(programs),
                         machine_config=machine_config, seed=seed)
    tasks = [cluster.spawn(core, program)
             for core, program in enumerate(programs)]
    cluster.run_until_tasks_exit(tasks, deadline_ns)
    return [
        ParallelCorunResult(
            name=program.name,
            core=core,
            solo_wall_ns=solo_walls[core],
            corun_wall_ns=tasks[core].wall_time_ns or 0,
        )
        for core, program in enumerate(programs)
    ]
