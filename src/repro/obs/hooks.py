"""Profiling hook points and the recorder protocol.

The instrumented hot paths (event queue, HRTimer, ring buffer, K-LEB
controller, fault ledger, trial runner) do not know about tracers or
registries; they talk to a **recorder** through the narrow hook-point
methods defined on :class:`Recorder`.

The contract that keeps observability honest:

* **Off is the default and a true no-op.**  The module-level recorder
  starts as :data:`NULL` — a :class:`NullRecorder` whose hooks do
  nothing and allocate nothing.  Instrumented objects capture
  :func:`active` (``None`` while the null recorder is installed) at
  construction, so a disabled run pays one pointer comparison per hook
  site and zero allocations.  The golden-digest suite proves the
  simulation is bit-identical either way; the Hypothesis suite proves
  arbitrary hook-call interleavings against the null recorder cannot
  perturb engine state.
* **Hooks observe, never steer.**  A hook receives already-computed
  values (a lateness, a batch size, a depth); it draws no randomness
  and mutates no simulation state, so *enabled* runs produce the same
  reports too.
* **Worker merging is trial-ordered.**  :func:`trial_capture` swaps in
  a fresh child recorder for one trial; its :meth:`Recorder.chunk` is
  plain data that travels beside the trial's value, and
  :func:`merge_chunk` folds chunks into the parent in trial order —
  ``jobs=4`` output is byte-identical to ``jobs=1``.  Both are called
  from one place, :func:`repro.experiments.parallel.map_trials`.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import SpanHandle, Tracer


class NullRecorder:
    """Every hook is a body-less no-op; installed by default.

    Kept method-per-hook (rather than ``__getattr__``) so a typo'd hook
    name fails loudly instead of silently no-opping.
    """

    enabled = False

    # -- engine ---------------------------------------------------------
    def queue_scheduled(self, depth: int) -> None: pass
    def queue_events_fired(self, count: int) -> None: pass
    def queue_event_cancelled(self) -> None: pass
    def queue_compacted(self, dead: int, remaining: int) -> None: pass

    # -- hrtimer --------------------------------------------------------
    def timer_fired(self, label: str, when: int, lateness_ns: int) -> None: pass
    def timer_missed(self, label: str, when: int) -> None: pass
    def timer_overrun(self, label: str, when: int, skipped: int) -> None: pass

    # -- ring buffer ----------------------------------------------------
    def buffer_pushed(self, depth: int) -> None: pass
    def buffer_dropped(self) -> None: pass
    def buffer_paused(self) -> None: pass
    def buffer_resumed(self) -> None: pass
    def buffer_squeezed(self, capacity: int) -> None: pass

    # -- controller -----------------------------------------------------
    def drain_cycle(self, start_ns: int, end_ns: int, batch: int,
                    paused: bool, interval_ns: int) -> None: pass
    def drain_shrunk(self, now: int, interval_ns: int) -> None: pass
    def drain_restored(self, now: int, interval_ns: int) -> None: pass
    def controller_retry(self, now: int, op: str) -> None: pass

    # -- adaptive control ----------------------------------------------
    def timer_reprogrammed(self, label: str, when: int,
                           period_ns: int) -> None: pass
    def control_observation(self, now: int,
                            overhead_percent: Optional[float],
                            level: int,
                            budget_percent: Optional[float] = None
                            ) -> None: pass
    def control_step(self, now: int, action: str, level: int,
                     period_ns: int) -> None: pass
    def control_frozen(self, now: int) -> None: pass

    # -- faults ---------------------------------------------------------
    def fault_landed(self, time_ns: int, site: str, kind: str) -> None: pass
    def fault_recovered(self, time_ns: int, site: str) -> None: pass

    # -- runner ---------------------------------------------------------
    def trial_started(self, trial: int) -> None: pass
    def trial_span(self, trial: int, seed: int, program: str, tool: str,
                   wall_ns: int, samples: int) -> None: pass
    def trial_retry(self, trial: int, attempt: int, kind: str) -> None: pass
    def trial_quarantined(self, trial: int, attempts: int) -> None: pass


NULL = NullRecorder()


class Recorder(NullRecorder):
    """A live recorder: tracer (optional) plus metrics registry.

    Every metric the hooks touch is pre-registered here, in a fixed
    order, so exports are deterministic and zero-valued metrics are
    still visible (a run with no drops *says* ``0`` drops).
    """

    enabled = True

    def __init__(self, trace: bool = True, metrics: bool = True,
                 wallclock: bool = False, flight=None,
                 publisher=None) -> None:
        # ``flight`` (a FlightRecorder ring) tees off the tracer's
        # record choke point; with trace=False the tracer runs in
        # non-retaining mode so the ring still sees recent events at
        # O(ring) memory.  ``publisher`` (a LivePublisher) streams
        # progress snapshots; both default off and cost nothing then.
        self.tracer: Optional[Tracer] = (
            Tracer(wallclock=wallclock, flight=flight, retain=trace)
            if (trace or flight is not None) else None
        )
        self.flight = flight
        # A recorder built in a fork-pool worker cannot write into the
        # parent's ring: the pid tells child_for_trial where it runs,
        # and ``_ships_flight`` marks a child whose ring rides home in
        # its chunk.
        self._pid = os.getpid()
        self._ships_flight = False
        self.publisher = publisher
        if publisher is not None:
            publisher.bind(self)
        self.registry = MetricsRegistry()
        self.wallclock = wallclock
        self.metrics_enabled = metrics
        reg = self.registry
        # engine
        self._events_fired = reg.counter(
            "sim_events_fired_total",
            "event-queue callbacks dispatched").default
        self._events_cancelled = reg.counter(
            "sim_events_cancelled_total",
            "scheduled events cancelled before firing").default
        self._compactions = reg.counter(
            "sim_queue_compactions_total",
            "tombstone-compaction heap rebuilds").default
        self._queue_high_water = reg.gauge(
            "sim_queue_depth_high_water",
            "max live events in the queue (high-water)").default
        # hrtimer
        self._timer_fires = reg.counter(
            "hrtimer_fires_total", "HRTimer handler invocations").default
        self._timer_missed = reg.counter(
            "hrtimer_missed_total",
            "expiries swallowed by masked-IRQ windows").default
        self._timer_overruns = reg.counter(
            "hrtimer_overruns_total",
            "re-arms that skipped slots (handler outran period)").default
        self._timer_skipped = reg.counter(
            "hrtimer_skipped_slots_total",
            "expiry slots skipped by overrun forwarding").default
        self._timer_lateness = reg.histogram(
            "hrtimer_fire_lateness_ns",
            "fire time minus ideal expiry (jitter + injected latency)",
            buckets=LATENCY_BUCKETS_NS).default
        # ring buffer
        self._buffer_pushes = reg.counter(
            "ringbuffer_pushes_total", "samples pooled in the buffer").default
        self._buffer_drops = reg.counter(
            "ringbuffer_dropped_total",
            "samples refused while full/paused").default
        self._buffer_pauses = reg.counter(
            "ringbuffer_pause_episodes_total",
            "back-pressure safety stops engaged").default
        self._buffer_resumes = reg.counter(
            "ringbuffer_resume_total", "safety stops released").default
        self._buffer_squeezes = reg.counter(
            "ringbuffer_squeeze_episodes_total",
            "injected capacity-squeeze episodes begun").default
        self._buffer_high_water = reg.gauge(
            "ringbuffer_depth_high_water",
            "max pooled samples (high-water)").default
        # controller
        self._drain_cycles = reg.counter(
            "kleb_drain_cycles_total", "controller drain cycles").default
        self._drain_batch = reg.histogram(
            "kleb_drain_batch_size", "samples drained per cycle",
            buckets=SIZE_BUCKETS).default
        self._drain_latency = reg.histogram(
            "kleb_drain_cycle_ns", "simulated time per drain cycle",
            buckets=LATENCY_BUCKETS_NS).default
        self._drain_shrinks = reg.counter(
            "kleb_drain_shrinks_total",
            "adaptive drain-interval halvings").default
        self._drain_restores = reg.counter(
            "kleb_drain_restores_total",
            "drain-interval restorations after healthy cycles").default
        self._retries = reg.counter(
            "kleb_retries_total", "transient syscall retries",
            label_names=("op",))
        # faults
        self._faults_landed = reg.counter(
            "faults_landed_total", "injected faults by site",
            label_names=("site",))
        self._faults_recovered = reg.counter(
            "faults_recovered_total", "recoveries observed by site",
            label_names=("site",))
        # runner
        self._trials = reg.counter(
            "trials_total", "trials completed (any outcome)").default
        self._trial_retries = reg.counter(
            "trials_retried_total", "trial attempts retried").default
        self._trials_quarantined = reg.counter(
            "trials_quarantined_total",
            "trials quarantined after the retry budget").default
        self._trial_wall = reg.histogram(
            "trial_sim_wall_ns", "victim wall time per trial",
            buckets=tuple(b * 1000 for b in LATENCY_BUCKETS_NS)).default
        # Adaptive-control metrics are registered lazily on first use
        # (see _control_metrics) so the pre-registered export set — and
        # with it the pinned obs digests — is unchanged for runs that
        # never enable the controller.
        self._control: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    # The per-event hooks (scheduled / fired / pushed / timer-fired)
    # run thousands of times per simulated second, so they mutate the
    # pre-registered metric objects directly instead of going through
    # ``inc``/``observe``/``set_max`` — one Python call per hook site,
    # not three.  The values they receive are trusted (non-negative by
    # construction), which is what ``Counter.inc`` would be checking.
    def queue_scheduled(self, depth: int) -> None:
        gauge = self._queue_high_water
        if depth > gauge.value:
            gauge.value = float(depth)

    def queue_events_fired(self, count: int) -> None:
        self._events_fired.value += count

    def queue_event_cancelled(self) -> None:
        self._events_cancelled.value += 1.0

    def queue_compacted(self, dead: int, remaining: int) -> None:
        self._compactions.inc()

    # ------------------------------------------------------------------
    # hrtimer
    # ------------------------------------------------------------------
    def timer_fired(self, label: str, when: int, lateness_ns: int) -> None:
        self._timer_fires.value += 1.0
        hist = self._timer_lateness
        hist.counts[bisect_left(hist.bounds, lateness_ns)] += 1
        hist.sum += lateness_ns
        hist.count += 1
        publisher = self.publisher
        if publisher is not None:
            publisher.heartbeat(when)

    def timer_missed(self, label: str, when: int) -> None:
        self._timer_missed.inc()
        if self.tracer is not None:
            self.tracer.instant("timer-missed", "hrtimer", when,
                                {"timer": label}, category="hrtimer")

    def timer_overrun(self, label: str, when: int, skipped: int) -> None:
        self._timer_overruns.inc()
        self._timer_skipped.inc(skipped)
        if self.tracer is not None:
            self.tracer.instant("timer-overrun", "hrtimer", when,
                                {"timer": label, "skipped": skipped},
                                category="hrtimer")

    # ------------------------------------------------------------------
    # ring buffer
    # ------------------------------------------------------------------
    def buffer_pushed(self, depth: int) -> None:
        self._buffer_pushes.value += 1.0
        gauge = self._buffer_high_water
        if depth > gauge.value:
            gauge.value = float(depth)

    def buffer_dropped(self) -> None:
        self._buffer_drops.inc()

    def buffer_paused(self) -> None:
        self._buffer_pauses.inc()

    def buffer_resumed(self) -> None:
        self._buffer_resumes.inc()

    def buffer_squeezed(self, capacity: int) -> None:
        self._buffer_squeezes.inc()

    # ------------------------------------------------------------------
    # controller
    # ------------------------------------------------------------------
    def drain_cycle(self, start_ns: int, end_ns: int, batch: int,
                    paused: bool, interval_ns: int) -> None:
        self._drain_cycles.inc()
        self._drain_batch.observe(batch)
        self._drain_latency.observe(end_ns - start_ns)
        if self.tracer is not None:
            self.tracer.complete(
                "drain-cycle", "controller", start_ns,
                end_ns - start_ns,
                {"batch": batch, "paused": paused,
                 "interval_ns": interval_ns},
                category="controller",
            )
        publisher = self.publisher
        if publisher is not None:
            publisher.heartbeat(end_ns)

    def drain_shrunk(self, now: int, interval_ns: int) -> None:
        self._drain_shrinks.inc()
        if self.tracer is not None:
            self.tracer.instant("drain-shrink", "controller", now,
                                {"interval_ns": interval_ns},
                                category="controller")

    def drain_restored(self, now: int, interval_ns: int) -> None:
        self._drain_restores.inc()
        if self.tracer is not None:
            self.tracer.instant("drain-restore", "controller", now,
                                {"interval_ns": interval_ns},
                                category="controller")

    def controller_retry(self, now: int, op: str) -> None:
        self._retries.labels(op).inc()

    # ------------------------------------------------------------------
    # adaptive control
    # ------------------------------------------------------------------
    def _control_metrics(self) -> Dict[str, object]:
        """Register the controller's metric families on first use.

        Lazy so adaptive-off runs export exactly the pre-registered
        set.  Registration is idempotent per name and
        ``MetricsRegistry.merge`` adopts unknown families wholesale,
        so parent recorders that never saw the controller still merge
        worker chunks that did.
        """
        control = self._control
        if control is None:
            reg = self.registry
            control = {
                "observations": reg.counter(
                    "control_observations_total",
                    "closed-loop sensor observations folded in").default,
                "steps": reg.counter(
                    "control_steps_total",
                    "closed-loop transitions by action",
                    label_names=("action",)),
                "level": reg.gauge(
                    "control_ladder_level_high_water",
                    "deepest degradation-ladder level reached").default,
                "overhead": reg.histogram(
                    "control_overhead_percent",
                    "smoothed monitoring overhead (percent of victim "
                    "cycles) per observation",
                    buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0)).default,
                "reprograms": reg.counter(
                    "hrtimer_reprogram_total",
                    "in-place HRTimer period changes").default,
                "frozen": reg.counter(
                    "control_frozen_observations_total",
                    "drain cycles lost to injected decision freezes").default,
            }
            self._control = control
        return control

    def timer_reprogrammed(self, label: str, when: int,
                           period_ns: int) -> None:
        self._control_metrics()["reprograms"].inc()
        if self.tracer is not None:
            self.tracer.instant("timer-reprogram", "hrtimer", when,
                                {"timer": label, "period_ns": period_ns},
                                category="hrtimer")

    def control_observation(self, now: int,
                            overhead_percent: Optional[float],
                            level: int,
                            budget_percent: Optional[float] = None
                            ) -> None:
        control = self._control_metrics()
        control["observations"].inc()
        control["level"].set_max(level)
        if overhead_percent is not None:
            control["overhead"].observe(overhead_percent)
        publisher = self.publisher
        if publisher is not None:
            # Keep the live fields fresh so the next snapshot carries
            # the ladder level and the budget the watchdog checks
            # breaches against.
            publisher.level = level
            publisher.overhead_percent = overhead_percent
            if budget_percent is not None:
                publisher.budget_percent = budget_percent

    def control_step(self, now: int, action: str, level: int,
                     period_ns: int) -> None:
        self._control_metrics()["steps"].labels(action).inc()
        if self.tracer is not None:
            self.tracer.instant(f"control:{action}", "controller", now,
                                {"level": level, "period_ns": period_ns},
                                category="controller")

    def control_frozen(self, now: int) -> None:
        self._control_metrics()["frozen"].inc()
        if self.tracer is not None:
            self.tracer.instant("control-frozen", "controller", now,
                                category="controller")

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def fault_landed(self, time_ns: int, site: str, kind: str) -> None:
        self._faults_landed.labels(site).inc()
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", "faults", time_ns,
                                {"site": site}, category="fault")

    def fault_recovered(self, time_ns: int, site: str) -> None:
        self._faults_recovered.labels(site).inc()

    # ------------------------------------------------------------------
    # runner
    # ------------------------------------------------------------------
    def trial_started(self, trial: int) -> None:
        publisher = self.publisher
        if publisher is not None:
            # Announce the trial on the bus immediately so /runs shows
            # it as running before the first cadence-gated heartbeat.
            publisher.publish(0, "running")

    def trial_span(self, trial: int, seed: int, program: str, tool: str,
                   wall_ns: int, samples: int) -> None:
        self._trials.inc()
        self._trial_wall.observe(wall_ns)
        if self.tracer is not None:
            self.tracer.complete(
                "trial", "runner", 0, wall_ns,
                {"trial": trial, "seed": seed, "program": program,
                 "tool": tool, "samples": samples},
                category="runner",
            )
        publisher = self.publisher
        if publisher is not None:
            # The unconditional final snapshot: whatever the heartbeat
            # cadence did, the merged live view converges on the
            # post-hoc registry because this one always lands.
            publisher.publish(wall_ns, "done")

    def trial_retry(self, trial: int, attempt: int, kind: str) -> None:
        self._trial_retries.inc()
        if self.tracer is not None:
            self.tracer.instant("trial-retry", "runner", 0,
                                {"trial": trial, "attempt": attempt,
                                 "kind": kind}, category="runner")

    def trial_quarantined(self, trial: int, attempts: int) -> None:
        self._trials_quarantined.inc()
        if self.tracer is not None:
            self.tracer.instant("trial-quarantined", "runner", 0,
                                {"trial": trial, "attempts": attempts},
                                category="runner")
        publisher = self.publisher
        if publisher is not None:
            publisher.publish(0, "quarantined")

    # ------------------------------------------------------------------
    # spans for ad-hoc callers (report tool, experiments)
    # ------------------------------------------------------------------
    def begin_span(self, name: str, track: str, start_ns: int,
                   args: Optional[Dict[str, object]] = None
                   ) -> Optional[SpanHandle]:
        if self.tracer is None:
            return None
        return self.tracer.begin(name, track, start_ns, args)

    def end_span(self, handle: Optional[SpanHandle], end_ns: int) -> None:
        if handle is not None and self.tracer is not None:
            self.tracer.end(handle, end_ns)

    # ------------------------------------------------------------------
    # live telemetry
    # ------------------------------------------------------------------
    def live_sample(self) -> Dict[str, int]:
        """The scalar progress fields a live snapshot carries.

        Reads the already-maintained metric objects — a handful of
        float loads, no aggregation pass — so publication stays cheap
        enough for a heartbeat cadence.
        """
        return {
            "samples": int(self._buffer_pushes.value),
            "drops": int(self._buffer_drops.value),
            "timer_fires": int(self._timer_fires.value),
            "faults": int(sum(series.value for series
                              in self._faults_landed.series.values())),
        }

    # ------------------------------------------------------------------
    # trial chunks
    # ------------------------------------------------------------------
    def child_for_trial(self, trial: int) -> "Recorder":
        """A fresh recorder with this one's flags, stamped ``pid=trial``.

        In-process, the flight ring is *shared*, so a dump taken
        mid-trial (crash, watchdog trip, quarantine) holds the trial's
        events.  In a fork-pool worker the child records into a fresh
        ring of the same capacity, whose tail rides home in
        :meth:`chunk` and is folded in trial order by
        :meth:`merge_chunk`.  The publisher is *cloned* per trial so
        snapshots carry the right trial index and sequence numbers.
        """
        flight = self.flight
        forked = flight is not None and os.getpid() != self._pid
        if forked:
            from repro.obs.live.flight import FlightRecorder

            flight = FlightRecorder(flight.capacity)
        child = Recorder(trace=(self.tracer is not None
                                and self.tracer.retain),
                         metrics=self.metrics_enabled,
                         wallclock=self.wallclock,
                         flight=flight,
                         publisher=(self.publisher.for_trial(trial)
                                    if self.publisher is not None
                                    else None))
        child._ships_flight = forked
        if child.tracer is not None:
            child.tracer.pid = trial
        return child

    def chunk(self) -> Dict[str, object]:
        """Everything recorded, as plain picklable data."""
        chunk = {
            "events": (self.tracer.dump_events()
                       if self.tracer is not None else []),
            "metrics": self.registry.to_json(),
        }
        if self._ships_flight:
            chunk["flight"] = self.flight.tail()
        return chunk

    def merge_chunk(self, chunk: Dict[str, object]) -> None:
        # A forked trial's flight tail first, so a dump taken after
        # this merge sees the trial's recent past.
        tail = chunk.get("flight")
        if tail is not None and self.flight is not None:
            self.flight.absorb(tail)
        if self.tracer is not None:
            self.tracer.absorb_events(chunk.get("events", []))
        self.registry.merge(MetricsRegistry.from_json(chunk["metrics"]))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_trace(self, path) -> None:
        if self.tracer is None or not self.tracer.retain:
            raise ValueError("recorder was created with trace=False")
        self.tracer.write(path)

    def write_metrics(self, path) -> None:
        self.registry.write(path)


# ----------------------------------------------------------------------
# The module-level recorder (global, fork-inherited by pool workers)
# ----------------------------------------------------------------------
_recorder: NullRecorder = NULL


def install(recorder: NullRecorder) -> None:
    """Make ``recorder`` the process-wide recorder."""
    global _recorder
    _recorder = recorder


def reset() -> None:
    """Back to the null recorder (observability off)."""
    install(NULL)


def recorder() -> NullRecorder:
    """The installed recorder (the null recorder when off)."""
    return _recorder


def active() -> Optional[Recorder]:
    """The installed recorder, or ``None`` when observability is off.

    Hot paths capture this once at construction and guard each hook
    site with a single ``is not None`` comparison — the cheapest
    possible disabled-path cost.
    """
    current = _recorder
    if type(current) is NullRecorder:
        return None
    return current  # type: ignore[return-value]


@contextmanager
def trial_capture(trial: int) -> Iterator[Optional[Recorder]]:
    """Run one trial under a fresh child recorder.

    Yields ``None`` (and installs nothing) when observability is off.
    On exit the parent recorder is reinstalled; the caller extracts the
    child's :meth:`Recorder.chunk` and merges it via
    :func:`merge_chunk` **in trial order**, which is what makes
    ``jobs=N`` output identical to serial.
    """
    parent = _recorder
    if type(parent) is NullRecorder:
        yield None
        return
    child = parent.child_for_trial(trial)  # type: ignore[union-attr]
    install(child)
    try:
        yield child
    finally:
        install(parent)


def merge_chunk(chunk: Optional[Dict[str, object]]) -> None:
    """Fold a trial chunk into the installed recorder (no-op when off)."""
    if chunk is None:
        return
    current = active()
    if current is not None:
        current.merge_chunk(chunk)
