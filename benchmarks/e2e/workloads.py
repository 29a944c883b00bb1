"""The five end-to-end workloads and their trial records.

A workload object is built once per process (its *inputs*), warmed up
with one trial per (program, tool), and then runs identical *passes*:
the same trial set each time, closed-loop from this one process (the
next trial starts when the previous one returns).  Only
``table2_parallel_obs`` fans out, over a ``jobs=2`` fork pool.

Trial seeds are ``base_seed + index``, with ``base_seed`` the
benchmark's ``--seed``.  A pass runs in *chunks* (a ``run_trials``
population of at most ``chunk`` trials, or one SMP trial), each timed
between host-speed probes (:mod:`benchmarks.e2e.hostspeed`).  Every
trial yields a digest of its simulated outcome; a pass's digests must
equal every other pass's, and at seed 0 the committed
``expected_seed0.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.e2e import hostspeed
from repro.control import ControlConfig
from repro.experiments.adaptive import DEFAULT_PHASE_INSTRUCTIONS
from repro.experiments.multiplex import EVENTS as MULTIPLEX_EVENTS
from repro.experiments.overhead_common import OVERHEAD_EVENTS
from repro.experiments.runner import run_monitored, run_trials
from repro.experiments.smp import run_monitored_smp
from repro.experiments.table2 import TOOLS as TABLE2_TOOLS
from repro.obs import hooks as obs_hooks
from repro.sim.clock import ms, us
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter
from repro.workloads.synthetic import PhaseShiftWorkload, StridedMemoryWorkload

FIG7_EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")
QUICK_SECRET = "Sq!mish"
SMP_EVENTS = ("LOADS", "STORES", "LLC_MISSES", "BRANCH_MISSES")
STREAMER_BUFFER_BYTES = 64 * 1024 * 1024


def trial_digest(seed: int, tool: str, program: str, wall_ns: int,
                 cpu_ns: int, samples: int,
                 totals: Dict[str, float]) -> str:
    """Digest of one trial's simulated outcome (host time excluded)."""
    document = json.dumps([seed, tool, program, wall_ns, cpu_ns, samples,
                           sorted(totals.items())])
    return hashlib.sha256(document.encode()).hexdigest()[:16]


@dataclass
class TrialRecord:
    host_s: float      # normalized to the reference host speed
    sim_wall_ns: int   # simulated victim time
    digest: str


@dataclass
class PassResult:
    """Everything one pass produced, in trial order.

    ``seconds`` sums the chunks' normalized host times; ``raw_seconds``
    the same chunks as the clock read them.  ``probe`` measures host
    speed (see :mod:`benchmarks.e2e.hostspeed`); with ``None`` (the
    traced pass, whose probes would be unattributed time) chunks are
    not probed and both are raw.
    """

    probe: Optional[Callable[[], float]] = hostspeed.probe_ns
    records: List[TrialRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    raw_seconds: float = 0.0
    # Digests of pass-level outputs (the exported metrics document).
    extra_digests: List[str] = field(default_factory=list)
    # The per-trial result objects, as a pool would pickle them.
    payloads: List[object] = field(default_factory=list)
    _last_probe: Optional[float] = None

    @property
    def digests(self) -> List[str]:
        return [record.digest for record in self.records] + self.extra_digests

    def timed(self, chunk: Callable[[], object]):
        """Run ``chunk``; return its value, raw seconds and normalization
        factor."""
        probe = self.probe
        before = None
        if probe is not None:
            before = (self._last_probe if self._last_probe is not None
                      else probe())
        start = time.perf_counter()
        try:
            value = chunk()
        finally:
            elapsed = time.perf_counter() - start
            factor = 1.0
            if probe is not None:
                self._last_probe = probe()
                factor = hostspeed.scale(before, self._last_probe)
            self.seconds += elapsed * factor
            self.raw_seconds += elapsed
        return value, elapsed, factor

    def run_population(self, tool: str, runs: int, chunk: int,
                       population: Callable[[int, int], Sequence]) -> None:
        """Run ``population(first, count)`` over ``runs`` trials in chunks.

        A chunk that raises fails all its trials; the pass goes on.
        """
        for first in range(0, runs, chunk):
            count = min(chunk, runs - first)
            self.attempted += count
            try:
                summaries, _, factor = self.timed(
                    lambda: population(first, count))
            except Exception:  # noqa: BLE001 - counted, reported, pass goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += count
                continue
            self.failed += count - len(summaries)
            for summary in summaries:
                self.records.append(TrialRecord(
                    host_s=summary.host_seconds * factor,
                    sim_wall_ns=summary.wall_ns,
                    digest=trial_digest(
                        summary.seed, tool, summary.program_name,
                        summary.wall_ns, summary.cpu_ns,
                        summary.sample_count, summary.report.totals)))
                self.payloads.append(summary)


class Table2Population:
    """Table II: matmul under every tool at 10 ms, ``runs`` seeds each."""

    name = "table2_population"
    tail_percentile = 95
    jobs = 1
    observed = False

    def __init__(self, seed: int, smoke: bool = False,
                 jobs: Optional[int] = None) -> None:
        self.base_seed = seed
        self.smoke = smoke
        self.runs = 2 if smoke else 10
        if jobs is not None:
            self.jobs = jobs
        self.program = TripleLoopMatmul(64 if smoke else 1024)

    def warm_up(self) -> None:
        for name in TABLE2_TOOLS:
            run_monitored(self.program, create_tool(name),
                          events=OVERHEAD_EVENTS, period_ns=ms(10),
                          seed=self.base_seed)

    def run_pass(self, result: PassResult) -> PassResult:
        recorder = obs_hooks.Recorder() if self.observed else None
        if recorder is not None:
            obs_hooks.install(recorder)
        try:
            for name in TABLE2_TOOLS:
                # A fresh tool per population, as collect_tool_runs does;
                # the pool path keeps whole populations (one pool each).
                result.run_population(
                    name, self.runs, self.runs if self.jobs > 1 else 5,
                    lambda first, count: run_trials(
                        self.program, create_tool(name), runs=count,
                        events=OVERHEAD_EVENTS, period_ns=ms(10),
                        base_seed=self.base_seed + first, jobs=self.jobs))
        finally:
            if recorder is not None:
                obs_hooks.reset()
        if recorder is not None:
            # Export both artifacts, as the CLI does; digest the metrics.
            metrics, _, _ = result.timed(lambda: (
                recorder.tracer.to_chrome_json(),
                recorder.registry.to_prometheus())[1])
            result.extra_digests.append(
                hashlib.sha256(metrics.encode()).hexdigest()[:16])
        return result


class Table2ParallelObs(Table2Population):
    """The Table II trial set via a jobs=2 pool with a recorder installed."""

    name = "table2_parallel_obs"
    jobs = 2
    observed = True

    def twin(self) -> "Table2ParallelObs":
        """The same trial set and recorder, run in-process (jobs=1)."""
        return Table2ParallelObs(self.base_seed, self.smoke, jobs=1)


class MeltdownTrace:
    """Fig. 7: clean and attacking programs under K-LEB at 100 us.

    Five clean trials (about 20 ms each) to ten attacks (about 100 ms):
    with equal counts the pooled median would fall in the gap between
    the two modes and jump between them from run to run.
    """

    name = "meltdown_trace"
    tail_percentile = 75

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.base_seed = seed
        secret = QUICK_SECRET[:2] if smoke else QUICK_SECRET
        # (program, trials per pass, trials per chunk)
        self.populations = (
            (SecretPrinter(secret), 1 if smoke else 5, 5),
            (MeltdownAttack(secret), 1 if smoke else 10, 2),
        )

    def warm_up(self) -> None:
        for program, _, _ in self.populations:
            run_monitored(program, create_tool("k-leb"), events=FIG7_EVENTS,
                          period_ns=us(100), seed=self.base_seed)

    def run_pass(self, result: PassResult) -> PassResult:
        for program, runs, chunk in self.populations:
            result.run_population(
                "k-leb", runs, chunk,
                lambda first, count: run_trials(
                    program, create_tool("k-leb"), runs=count,
                    events=FIG7_EVENTS, period_ns=us(100),
                    base_seed=self.base_seed + first, jobs=1))
        return result


class SmpMigrate:
    """Matmul watched on a migrating 4-core cluster beside 3 streamers."""

    name = "smp_migrate"
    tail_percentile = 75

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.base_seed = seed
        self.runs = 2 if smoke else 8
        self.streamer_accesses = 500 if smoke else 20_000
        self.victim = TripleLoopMatmul(64 if smoke else 512)

    def _trial(self, seed: int):
        # Fresh streamers every trial: their traces are rebuilt and
        # replanned each time, as in a real population.
        streamers = [
            StridedMemoryWorkload(STREAMER_BUFFER_BYTES,
                                  self.streamer_accesses,
                                  name=f"streamer{index}",
                                  address_base=(index + 1) << 30)
            for index in range(3)
        ]
        return run_monitored_smp(self.victim, events=SMP_EVENTS,
                                 period_ns=us(100), seed=seed, cores=4,
                                 sockets=1, migrate=True,
                                 aggressors=streamers)

    def warm_up(self) -> None:
        self._trial(self.base_seed)

    def run_pass(self, result: PassResult) -> PassResult:
        for index in range(self.runs):
            seed = self.base_seed + index
            result.attempted += 1
            try:
                run, elapsed, factor = result.timed(
                    lambda: self._trial(seed))
            except Exception:  # noqa: BLE001 - counted, reported, pass goes on
                traceback.print_exc(file=sys.stderr)
                result.failed += 1
                continue
            # The victim's wall_time_ns is unreliable once it migrates
            # (some seeds read 16-41 ms against ~290 ms of samples), so
            # its simulated time is the span its samples cover.
            timestamps = run.report.samples.timestamps
            sim_ns = timestamps[-1] - timestamps[0] if timestamps else 0
            # The SMP result carries no victim CPU time; the migration
            # count stands in for it in the digest.
            result.records.append(TrialRecord(
                host_s=elapsed * factor, sim_wall_ns=sim_ns,
                digest=trial_digest(seed, "k-leb", self.victim.name,
                                    run.wall_ns, run.migrations,
                                    run.report.sample_count,
                                    run.report.totals)))
            result.payloads.append(run)
        return result


class MuxAdaptive:
    """Eight multiplexed events under the adaptive controller."""

    name = "mux_adaptive"
    tail_percentile = 90

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.base_seed = seed
        self.runs = 2 if smoke else 24
        phases = DEFAULT_PHASE_INSTRUCTIONS
        if smoke:
            phases = tuple(instructions / 10 for instructions in phases)
        self.program = PhaseShiftWorkload.alternating(phases)

    @staticmethod
    def _tool() -> KLebTool:
        return KLebTool(multiplex_period_ns=us(500), control=ControlConfig(
            overhead_budget_percent=2.0, min_period_ns=us(100),
            max_period_ns=ms(10)))

    def warm_up(self) -> None:
        run_monitored(self.program, self._tool(), events=MULTIPLEX_EVENTS,
                      period_ns=us(100), seed=self.base_seed)

    def run_pass(self, result: PassResult) -> PassResult:
        result.run_population(
            "k-leb", self.runs, 3,
            lambda first, count: run_trials(
                self.program, self._tool(), runs=count,
                events=MULTIPLEX_EVENTS, period_ns=us(100),
                base_seed=self.base_seed + first, jobs=1))
        return result


WORKLOADS = {cls.name: cls for cls in (
    Table2Population, MeltdownTrace, SmpMigrate, MuxAdaptive,
    Table2ParallelObs)}
