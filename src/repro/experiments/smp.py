"""SMP contention crosscheck — streamer vs. service on a shared LLC.

The paper's scheduling motivation (§II-C, §IV-B) is that co-located
workloads contend for the shared last-level cache and a high-frequency
monitor can see it happen.  This experiment pins that claim to the SMP
substrate: an LLC-resident *service* (pointer chase) is monitored by
one K-LEB instance while *streamer* aggressors on the remaining cores
sweep a buffer much larger than the LLC.

Crosschecked against single-core ground truth:

* the service's architectural counts (INST_RETIRED) are identical solo
  vs. contended — contention changes *time*, not the instruction
  stream;
* its LLC MPKI inflates under contention (the streamers evict its
  working set);
* per-socket uncore bandwidth rises with the streamers' DRAM traffic.

With ``migrate=True`` the service also wanders across cores under the
seeded migrate-on-quantum policy, and the per-core counter deltas in
the report metadata show the split — their sum still matches the
single-core totals (conservation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments import report as report_mod
from repro.experiments.parallel import map_trials
from repro.faults import FaultPlan
from repro.faults.inject import FaultInjector
from repro.hw.machine import MachineConfig
from repro.kernel.config import KernelConfig
from repro.kernel.smp import SmpCluster
from repro.sim.clock import ms, seconds, us
from repro.tools.base import ToolReport
from repro.tools.kleb.tool import KLebTool
from repro.workloads.base import Program
from repro.workloads.synthetic import (PointerChaseWorkload,
                                       StridedMemoryWorkload)

EVENTS = ("LLC_MISSES", "BRANCH_MISSES")

#: Quantum for SMP runs: short enough that the migrate-on-quantum
#: policy gets regular chances on sub-second victims.
SMP_QUANTUM_NS = ms(1)


def _smp_kernel_config(kernel_config: Optional[KernelConfig]
                       ) -> KernelConfig:
    if kernel_config is not None:
        return kernel_config
    return KernelConfig(noise_enabled=False, quantum_ns=SMP_QUANTUM_NS)


@dataclass
class SmpRunResult:
    """One monitored SMP run, reduced to plain (picklable) data."""

    report: ToolReport
    wall_ns: int
    migrations: int
    cores: int
    sockets: int
    uncore_bandwidth_bytes_per_sec: Tuple[float, ...]
    uncore_totals: Tuple[Dict[str, int], ...]

    def mpki(self, instructions_event: str = "INST_RETIRED",
             misses_event: str = "LLC_MISSES") -> float:
        instructions = self.report.totals.get(instructions_event, 0.0)
        if instructions <= 0:
            return 0.0
        return self.report.totals.get(misses_event, 0.0) / instructions * 1e3

    def per_core_mpki(self) -> Tuple[float, ...]:
        """Victim MPKI split by core (from the smp_cpu* metadata)."""
        values: List[float] = []
        for cpu in range(self.cores):
            instructions = self.report.metadata.get(
                f"smp_cpu{cpu}:INST_RETIRED", 0.0)
            misses = self.report.metadata.get(
                f"smp_cpu{cpu}:LLC_MISSES", 0.0)
            values.append(misses / instructions * 1e3
                          if instructions > 0 else 0.0)
        return tuple(values)


def run_monitored_smp(program: Program,
                      *,
                      events: Sequence[str] = EVENTS,
                      period_ns: int = us(100),
                      seed: int = 0,
                      cores: int = 2,
                      sockets: int = 1,
                      migrate: bool = False,
                      aggressors: Sequence[Program] = (),
                      machine_config: Optional[MachineConfig] = None,
                      kernel_config: Optional[KernelConfig] = None,
                      faults: Optional[FaultInjector] = None,
                      deadline_ns: int = seconds(30)) -> SmpRunResult:
    """Monitor ``program`` with one K-LEB instance on an SMP cluster.

    The victim spawns (stopped) on core 0 — the controller's home —
    and, with ``migrate``, wanders under the seeded policy while the
    per-CPU ring keeps the sample stream merged.  ``aggressors`` spawn
    round-robin on the remaining cores.  ``faults`` is one injector
    shared by every core's kernel; its ledger is the run's fault record.
    """
    if len(aggressors) > max(0, cores - 1):
        raise ExperimentError(
            f"{len(aggressors)} aggressors need at least "
            f"{len(aggressors) + 1} cores, got {cores}")
    cluster = SmpCluster(
        cores=cores,
        machine_config=machine_config,
        kernel_config=_smp_kernel_config(kernel_config),
        seed=seed,
        sockets=sockets,
        migrate=migrate,
        faults=faults,
    )
    victim = cluster.spawn(0, program, start=False)
    for index, aggressor in enumerate(aggressors):
        task = cluster.spawn(1 + index % (cores - 1), aggressor)
        # Background load stays put (taskset semantics): migration —
        # and the migration accounting — is about the monitored victim.
        task.pinned = True
    session = KLebTool().attach_cluster(
        cluster, victim, list(events), period_ns)
    cluster.run_until_tasks_exit([victim], deadline_ns=deadline_ns)
    tool_report = session.finalize()
    # As in run_monitored: only the cyclic collector frees a finished
    # cluster, so return every core's cache sets, and with them the
    # shared LLCs', now.
    for kernel in cluster.kernels:
        kernel.machine.cache.release()
    return SmpRunResult(
        report=tool_report,
        wall_ns=victim.wall_time_ns or 0,
        migrations=cluster.migrations,
        cores=cores,
        sockets=sockets,
        uncore_bandwidth_bytes_per_sec=tuple(
            uncore.bandwidth_bytes_per_sec for uncore in cluster.uncores),
        uncore_totals=tuple(uncore.totals() for uncore in cluster.uncores),
    )


#: Service working set: far bigger than L2 (so its reuse lives in the
#: LLC) yet a small fraction of the LLC (so it is LLC-warm solo after
#: one cold traversal — the contrast contention destroys).
SERVICE_WORKING_SET_BYTES = 2 * 1024 * 1024
#: Streamer sweep buffer: 8x the LLC, no reuse — pure eviction
#: pressure plus DRAM bandwidth.
STREAMER_BUFFER_BYTES = 64 * 1024 * 1024


def _service(seed: int, accesses: int) -> Program:
    return PointerChaseWorkload(SERVICE_WORKING_SET_BYTES, accesses,
                                seed=seed, name="service")


def _streamer(index: int, accesses: int) -> Program:
    # Distinct GiB-aligned bases: the cache model is physically indexed
    # with no address-space tagging, so co-runners sharing base 0 would
    # alias (and effectively prefetch) each other's lines.
    return StridedMemoryWorkload(STREAMER_BUFFER_BYTES, accesses,
                                 name=f"streamer{index}",
                                 address_base=(index + 1) << 30)


def run_smp_trials(runs: int,
                   *,
                   jobs: Optional[int] = None,
                   base_seed: int = 0,
                   cores: int = 4,
                   migrate: bool = True,
                   service_accesses: int = 120_000,
                   streamer_accesses: int = 60_000,
                   period_ns: int = us(100),
                   fault_plan: Optional[FaultPlan] = None
                   ) -> List[SmpRunResult]:
    """A population of seeded SMP trials, fanned over ``jobs`` workers.

    Trial ``t`` gets seed ``base_seed + t`` and (under a fault plan)
    injector trial ``t`` — a pure function of the index, so any worker
    count returns a bit-identical list (the jobs=1 == jobs=4 pin).
    """

    def one(trial: int) -> SmpRunResult:
        program = _service(base_seed + trial, service_accesses)
        return run_monitored_smp(
            program,
            period_ns=period_ns,
            seed=base_seed + trial,
            cores=cores,
            migrate=migrate,
            aggressors=[_streamer(index, streamer_accesses)
                        for index in range(cores - 1)],
            faults=(FaultInjector(fault_plan, trial)
                    if fault_plan is not None and fault_plan.active
                    else None),
        )

    return map_trials(one, runs, jobs=jobs)


@dataclass
class SmpContentionResult:
    """Solo vs. contended crosscheck outcome."""

    cores: int
    migrate: bool
    solo: SmpRunResult
    contended: SmpRunResult

    @property
    def instruction_drift_percent(self) -> float:
        solo = self.solo.report.totals.get("INST_RETIRED", 0.0)
        contended = self.contended.report.totals.get("INST_RETIRED", 0.0)
        if solo <= 0:
            return 0.0
        return abs(contended - solo) / solo * 100.0

    @property
    def mpki_inflation(self) -> float:
        solo = self.solo.mpki()
        return self.contended.mpki() / solo if solo > 0 else 0.0

    @property
    def bandwidth_inflation(self) -> float:
        solo = self.solo.uncore_bandwidth_bytes_per_sec[0]
        contended = self.contended.uncore_bandwidth_bytes_per_sec[0]
        return contended / solo if solo > 0 else 0.0


def run(cores: int = 4, seed: int = 0, period_ns: int = us(100),
        migrate: bool = True,
        service_accesses: int = 300_000,
        streamer_accesses: int = 400_000) -> SmpContentionResult:
    """Contention crosscheck: the monitored service solo vs. co-located
    with LLC streamers, same seed and events."""
    if cores < 2:
        raise ExperimentError("the contention crosscheck needs >= 2 cores")
    solo = run_monitored_smp(
        _service(seed, service_accesses),
        period_ns=period_ns, seed=seed, cores=1, migrate=False,
    )
    contended = run_monitored_smp(
        _service(seed, service_accesses),
        period_ns=period_ns, seed=seed, cores=cores, migrate=migrate,
        aggressors=[_streamer(index, streamer_accesses)
                    for index in range(cores - 1)],
    )
    return SmpContentionResult(cores=cores, migrate=migrate,
                               solo=solo, contended=contended)


def render(result: SmpContentionResult) -> str:
    solo, contended = result.solo, result.contended
    rows = [
        ["LLC MPKI", f"{solo.mpki():.3f}", f"{contended.mpki():.3f}",
         f"{result.mpki_inflation:.2f}x"],
        ["INST_RETIRED",
         report_mod.format_count(solo.report.totals["INST_RETIRED"]),
         report_mod.format_count(contended.report.totals["INST_RETIRED"]),
         f"{result.instruction_drift_percent:.4f}% drift"],
        ["uncore bandwidth",
         f"{solo.uncore_bandwidth_bytes_per_sec[0] / 1e6:.1f} MB/s",
         f"{contended.uncore_bandwidth_bytes_per_sec[0] / 1e6:.1f} MB/s",
         f"{result.bandwidth_inflation:.2f}x"],
        ["service wall time", f"{solo.wall_ns / 1e6:.2f} ms",
         f"{contended.wall_ns / 1e6:.2f} ms",
         f"{contended.wall_ns / max(solo.wall_ns, 1):.2f}x"],
    ]
    table = report_mod.text_table(
        ["metric", "solo (1 core)",
         f"contended ({result.cores} cores)", "ratio"],
        rows,
        title=("SMP contention crosscheck "
               f"(service vs {result.cores - 1} streamer(s)"
               f"{', migrating' if result.migrate else ''})"),
    )
    per_core = ", ".join(
        f"cpu{cpu}={value:.3f}"
        for cpu, value in enumerate(contended.per_core_mpki()))
    return (
        f"{table}\n\n"
        f"service migrations: {contended.migrations}\n"
        f"per-core service MPKI: {per_core}\n"
        f"uncore totals (socket 0): {contended.uncore_totals[0]}"
    )
