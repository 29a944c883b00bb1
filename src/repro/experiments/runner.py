"""Single-trial runner: one machine, one kernel, one victim, one tool.

Every experiment in the paper reduces to repetitions of this recipe:

1. boot a fresh machine/kernel (seeded — trials are reproducible);
2. let the tool rewrite the victim program if it needs source access;
3. spawn the victim **stopped**, attach the tool, let the tool release
   it (perf's enable-on-exec, K-LEB's start ioctl);
4. run until the victim exits; finalize the session (drain buffers).

:func:`run_monitored` returns a :class:`RunResult` holding the live
``Kernel``/``Task`` for white-box inspection.  :func:`run_trial` is the
one trial body: it wraps :func:`run_monitored` in the retry/quarantine
policy of an optional fault plan and returns a plain-data
:class:`TrialOutcome`.  :func:`run_trials` maps it over a population
with :func:`repro.experiments.parallel.map_trials` and folds the
outcomes into trial-ordered :class:`TrialSummary` objects — picklable,
so experiments never reach back into a kernel that may have run in
another process.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import KernelError, TransientModuleError, TrialCrashError
from repro.faults import (
    BENIGN_FATE,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RunLedger,
    TrialLedger,
)
from repro.hw.machine import Machine, MachineConfig
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.process import Task
from repro.obs import hooks as obs_hooks
from repro.sim.clock import seconds
from repro.sim.rng import RngStreams
from repro.tools.base import MonitoringTool, ToolReport
from repro.workloads.base import Program

DEFAULT_EVENTS = ("LOADS", "STORES", "BRANCHES", "LLC_MISSES")

logger = logging.getLogger(__name__)

# Scratch values carried into a TrialSummary: plain data only, so the
# summary stays picklable (tools may stash live objects in scratch).
_PICKLABLE_SCRATCH = (bool, int, float, str, bytes)

# Trial-level retry policy: injected crashes/timeouts are retried with
# capped exponential backoff; a trial still failing after the budget is
# quarantined (reported in the fault ledger, not aborting the run).
MAX_TRIAL_ATTEMPTS = 3
TRIAL_BACKOFF_BASE_S = 0.05
TRIAL_BACKOFF_CAP_S = 0.5
# The *planned* backoff goes in the ledger; the host sleep is capped
# much lower so fault-heavy test suites stay fast.
TRIAL_BACKOFF_REAL_CAP_S = 0.02
# Simulated-time deadline used to model an injected trial timeout: far
# below any workload's runtime (even process setup takes longer), so
# the watchdog always trips.
TRIAL_TIMEOUT_DEADLINE_S = 1e-6


@dataclass
class RunResult:
    """Outcome of one monitored trial (live objects, in-process only)."""

    report: ToolReport
    victim: Task
    kernel: Kernel

    @property
    def wall_ns(self) -> int:
        """Victim wall-clock runtime (the overhead metric).

        Raises :class:`KernelError` if the victim never exited — a
        silent 0 here would contribute a zero to overhead means.
        """
        wall = self.victim.wall_time_ns
        if wall is None:
            raise KernelError(
                f"victim pid {self.victim.pid} ({self.victim.name!r}) "
                "has not exited; wall time is undefined"
            )
        return wall

    @property
    def cpu_ns(self) -> int:
        return self.victim.cpu_time_ns


@dataclass
class TrialSummary:
    """Plain-data outcome of one trial — everything experiments consume.

    Unlike :class:`RunResult` this carries no live ``Kernel``/``Task``,
    so it can cross a process boundary and be compared for bit-for-bit
    equality between the serial and parallel paths (``host_seconds``,
    which measures the host not the simulation, is excluded from
    comparisons).
    """

    trial: int
    seed: int
    wall_ns: int
    cpu_ns: int
    report: ToolReport
    program_name: str
    program_metadata: Dict[str, float] = field(default_factory=dict)
    scratch: Dict[str, object] = field(default_factory=dict)
    host_seconds: float = field(default=0.0, compare=False)

    @property
    def sample_count(self) -> int:
        return self.report.sample_count


def summarize_trial(result: RunResult, *, trial: int = 0, seed: int = 0,
                    host_seconds: float = 0.0) -> TrialSummary:
    """Extract the picklable summary of a finished :class:`RunResult`."""
    victim = result.victim
    scratch = {
        key: value for key, value in victim.scratch.items()
        if isinstance(value, _PICKLABLE_SCRATCH)
    }
    return TrialSummary(
        trial=trial,
        seed=seed,
        wall_ns=result.wall_ns,
        cpu_ns=result.cpu_ns,
        report=result.report,
        program_name=victim.program.name,
        program_metadata=dict(victim.program.metadata),
        scratch=scratch,
        host_seconds=host_seconds,
    )


def _prepare_program_cached(tool: MonitoringTool, program: Program,
                            events: Sequence[str],
                            period_ns: int) -> Program:
    """Memoize ``tool.prepare_program`` across trials of one run.

    ``run_trials`` calls :func:`run_monitored` with the same
    ``(program, events, period)`` N times; tools whose preparation is
    trial-independent (``reusable_preparation``) keep a one-slot cache
    on the tool instance, so the compiled program is built once per
    run (and once per worker under ``jobs=N``).  The program is keyed
    by identity — block streams are factories, so a prepared program
    is not consumed by running it.
    """
    if not tool.reusable_preparation:
        return tool.prepare_program(program, events, period_ns)
    events_key = tuple(events)
    entry = getattr(tool, "_prepared_cache", None)
    if (entry is not None and entry[0] is program
            and entry[1] == events_key and entry[2] == period_ns):
        return entry[3]
    prepared = tool.prepare_program(program, events, period_ns)
    tool._prepared_cache = (program, events_key, period_ns, prepared)
    return prepared


def run_monitored(program: Program, tool: MonitoringTool,
                  events: Sequence[str] = DEFAULT_EVENTS,
                  period_ns: int = 10_000_000,
                  seed: int = 0,
                  machine_config: Optional[MachineConfig] = None,
                  kernel_config: Optional[KernelConfig] = None,
                  deadline_s: float = 300.0,
                  faults: Optional[FaultInjector] = None) -> RunResult:
    """Run ``program`` under ``tool`` on a fresh system; see module doc."""
    machine = Machine(machine_config or i7_920())
    config = kernel_config or KernelConfig()
    if tool.kernel_version is not None:
        config = replace(config, kernel_version=tool.kernel_version)
    kernel = Kernel(
        machine,
        config=config,
        rng=RngStreams(seed),
        patches=list(tool.required_patches),
        faults=faults,
    )
    tool.check_compatible(kernel, program)
    prepared = _prepare_program_cached(tool, program, events, period_ns)
    victim = kernel.spawn(prepared, start=False)
    session = tool.attach(kernel, victim, events, period_ns)
    kernel.run_until_exit(victim, deadline=seconds(deadline_s))
    report = session.finalize()
    # Modules, timers and pending events point back at the kernel, so
    # only the cyclic collector frees a trial; return its cache sets now.
    machine.cache.release()
    return RunResult(report=report, victim=victim, kernel=kernel)


@dataclass
class TrialOutcome:
    """Plain-data result of one trial: its summary (``None`` when
    quarantined) and its :class:`TrialLedger`.  Picklable, so a pool
    worker returns it unchanged."""

    summary: Optional[TrialSummary]
    ledger: TrialLedger


def _trial_backoff_s(attempt: int) -> float:
    """Planned capped-exponential backoff before retry ``attempt``."""
    return min(TRIAL_BACKOFF_BASE_S * (2 ** (attempt - 1)),
               TRIAL_BACKOFF_CAP_S)


def run_trial(program: Program, tool: MonitoringTool, trial: int, *,
              plan: Optional[FaultPlan] = None,
              events: Sequence[str] = DEFAULT_EVENTS,
              period_ns: int = 10_000_000,
              base_seed: int = 0,
              machine_config: Optional[MachineConfig] = None,
              kernel_config: Optional[KernelConfig] = None
              ) -> TrialOutcome:
    """One seeded trial (seed ``base_seed + trial``), with retry and
    quarantine under a fault plan.

    Without a ``plan`` the trial's fate is benign: no injector is
    built, the one attempt succeeds or its error propagates.  Under a
    plan the fate (crash / timeout / persistent failure / benign) is a
    pure function of ``(plan.seed, trial)`` — see
    :meth:`~repro.faults.FaultPlan.trial_fate` — so serial and parallel
    execution reach identical decisions.  Each attempt rebuilds a fresh
    :class:`~repro.faults.FaultInjector` for the same ``(plan, trial)``
    pair, so a retry replays identical in-simulation faults and the
    final successful attempt is reproducible in isolation.

    Only *injected* failure modes are caught and retried; a genuine
    bug (any other exception) propagates unchanged.
    """
    seed = base_seed + trial
    fate = plan.trial_fate(trial) if plan is not None else BENIGN_FATE
    recorder = obs_hooks.recorder()
    recorder.trial_started(trial)
    ledger = TrialLedger(trial=trial, seed=seed)
    last_error = ""
    for attempt in range(1, MAX_TRIAL_ATTEMPTS + 1):
        ledger.attempts = attempt
        injector = (FaultInjector(plan, trial=trial) if plan is not None
                    else None)
        failing = attempt <= fate.failing_attempts
        inject_timeout = fate.kind == "timeout" and failing
        started = time.perf_counter()
        try:
            if fate.kind in ("crash", "persistent") and failing:
                flavour = ("persistent worker failure"
                           if fate.kind == "persistent"
                           else "transient worker crash")
                raise TrialCrashError(
                    f"trial {trial}: injected {flavour} (attempt {attempt})"
                )
            result = run_monitored(
                program, tool, events=events, period_ns=period_ns,
                seed=seed, machine_config=machine_config,
                kernel_config=kernel_config,
                deadline_s=(TRIAL_TIMEOUT_DEADLINE_S if inject_timeout
                            else 300.0),
                faults=injector,
            )
        except TrialCrashError as error:
            kind = ("persistent-failure" if fate.kind == "persistent"
                    else "worker-crash")
            last_error = str(error)
        except TransientModuleError as error:
            # Controller exhausted its own retry budget against an
            # injected device failure; the whole trial is retryable.
            kind = "device-failure"
            last_error = str(error)
        except KernelError as error:
            if not inject_timeout:
                raise  # a real bug, not our watchdog — propagate
            kind = "trial-timeout"
            last_error = str(error)
        else:
            if injector is not None:
                ledger.records.extend(injector.ledger.records)
            summary = summarize_trial(
                result, trial=trial, seed=seed,
                host_seconds=time.perf_counter() - started,
            )
            recorder.trial_span(trial, seed, summary.program_name,
                                summary.report.tool, summary.wall_ns,
                                summary.sample_count)
            return TrialOutcome(summary=summary, ledger=ledger)
        ledger.records.append(FaultRecord(time_ns=0, site="runner",
                                          kind=kind, detail=last_error))
        recorder.fault_landed(0, "runner", kind)
        if attempt < MAX_TRIAL_ATTEMPTS:
            backoff_s = _trial_backoff_s(attempt)
            ledger.records.append(FaultRecord(
                time_ns=0, site="runner", kind="retry-backoff",
                detail=f"attempt {attempt} failed; "
                       f"backing off {backoff_s:.2f}s",
            ))
            recorder.trial_retry(trial, attempt, kind)
            time.sleep(min(backoff_s, TRIAL_BACKOFF_REAL_CAP_S))
    ledger.quarantined = True
    ledger.error = last_error
    recorder.trial_quarantined(trial, MAX_TRIAL_ATTEMPTS)
    return TrialOutcome(summary=None, ledger=ledger)


def collect_outcomes(outcomes: Sequence[TrialOutcome],
                     fault_ledger: Optional[RunLedger] = None
                     ) -> List[TrialSummary]:
    """Fold trial-ordered outcomes into the ledger; return survivors.

    Logs one INFO line per surviving trial.  Quarantined trials
    contribute a ledger entry (and a warning) but no summary —
    downstream statistics run on the survivors, exactly as a robust
    harness would treat a persistently broken host.
    """
    summaries: List[TrialSummary] = []
    for outcome in outcomes:
        summary, ledger = outcome.summary, outcome.ledger
        if fault_ledger is not None:
            fault_ledger.add(ledger)
        if summary is None:
            logger.warning("trial %d quarantined after %d attempts: %s",
                           ledger.trial, ledger.attempts, ledger.error)
            continue
        logger.info(
            "trial %d/%d (%s under %s) done in %.2fs after %d attempt(s): "
            "sim wall %.4fs, %d samples", ledger.trial + 1, len(outcomes),
            summary.program_name, summary.report.tool,
            summary.host_seconds, ledger.attempts, summary.wall_ns / 1e9,
            summary.sample_count,
        )
        summaries.append(summary)
    return summaries


def run_trials(program: Program, tool: MonitoringTool,
               runs: int,
               events: Sequence[str] = DEFAULT_EVENTS,
               period_ns: int = 10_000_000,
               base_seed: int = 0,
               machine_config: Optional[MachineConfig] = None,
               kernel_config: Optional[KernelConfig] = None,
               jobs: Optional[int] = 1,
               faults: Optional[FaultPlan] = None,
               fault_ledger: Optional[RunLedger] = None
               ) -> List[TrialSummary]:
    """``runs`` trials of :func:`run_trial`, fanned over ``jobs`` workers.

    Trial ``t`` always runs with seed ``base_seed + t``.  ``jobs=1``
    runs in-process, ``jobs>1`` over a fork pool (``jobs=None`` uses
    every core); see :func:`~repro.experiments.parallel.map_trials`.
    Summaries come back in trial order and are bit-for-bit identical
    regardless of ``jobs``.

    An active ``faults`` plan gives every trial retry and quarantine;
    ``fault_ledger`` collects per-trial fault records.  An inert plan
    (or ``None``) is the unfaulted run.
    """
    from repro.experiments.parallel import map_trials

    plan = faults if faults is not None and faults.active else None

    def one(trial: int) -> TrialOutcome:
        return run_trial(program, tool, trial, plan=plan, events=events,
                         period_ns=period_ns, base_seed=base_seed,
                         machine_config=machine_config,
                         kernel_config=kernel_config)

    return collect_outcomes(map_trials(one, runs, jobs=jobs),
                            fault_ledger if plan is not None else None)
