"""Profiling hook points and the recorder protocol.

The instrumented hot paths (HRTimer, K-LEB controller, fault ledger,
trial runner) do not know about tracers or registries; they talk to a
**recorder** through the narrow hook-point methods defined on
:class:`Recorder`.

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
  values (a lateness, a batch size, a level); it draws no randomness
  and mutates no simulation state, so *enabled* runs produce the same
  reports too.
* **Sources count, hooks trace.**  Event queues, HRTimers, sample
  rings, K-LEB controller states and fault ledgers count their own
  facts and register those counts with the recorder at construction
  (``queues``/``timers``/``rings``/``controllers``/``fault_ledgers``/
  ``trial_ledgers``); every read of :attr:`Recorder.registry` projects
  those counts, and timer fires, drain cycles and trials are read off
  the histograms their hooks feed.  A hook traces, feeds a histogram
  or gauge, or publishes live; it counts nothing.
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
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.control.ledger import ACTIONS
from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import Tracer

#: The counter families projected from each kind of registered counts:
#: family name, the attribute it sums, help text.
_QUEUE_COUNTERS = (
    ("sim_events_fired_total", "fired", "event-queue callbacks dispatched"),
    ("sim_events_cancelled_total", "cancelled",
     "scheduled events cancelled before firing"),
    ("sim_queue_compactions_total", "compactions",
     "tombstone-compaction heap rebuilds"),
)
_TIMER_COUNTERS = (
    ("hrtimer_missed_total", "missed",
     "expiries swallowed by masked-IRQ windows"),
    ("hrtimer_overruns_total", "overruns",
     "re-arms that skipped slots (handler outran period)"),
    ("hrtimer_skipped_slots_total", "skipped_slots",
     "expiry slots skipped by overrun forwarding"),
)
_RING_COUNTERS = (
    ("ringbuffer_pushes_total", "total_pushed",
     "samples pooled in the buffer"),
    ("ringbuffer_dropped_total", "dropped",
     "samples refused while full/paused"),
    ("ringbuffer_pause_episodes_total", "pause_episodes",
     "back-pressure safety stops engaged"),
    ("ringbuffer_resume_total", "resumes", "safety stops released"),
    ("ringbuffer_squeeze_episodes_total", "squeeze_episodes",
     "injected capacity-squeeze episodes begun"),
)

#: Counter families that count the samples of a histogram family.
_HISTOGRAM_COUNTS = (
    ("hrtimer_fires_total", "hrtimer_fire_lateness_ns"),
    ("kleb_drain_cycles_total", "kleb_drain_batch_size"),
    ("trials_total", "trial_sim_wall_ns"),
)


class NullRecorder:
    """Every hook is a body-less no-op; installed by default.

    Kept method-per-hook (rather than ``__getattr__``) so a typo'd hook
    name fails loudly instead of silently no-opping.
    """

    enabled = False

    # -- hrtimer --------------------------------------------------------
    def timer_fired(self, label: str, when: int, lateness_ns: int) -> None: pass
    def timer_missed(self, label: str, when: int) -> None: pass
    def timer_overrun(self, label: str, when: int, skipped: int) -> None: pass

    # -- controller -----------------------------------------------------
    def drain_cycle(self, start_ns: int, end_ns: int, batch: int,
                    paused: bool, interval_ns: int) -> None: pass
    def drain_shrunk(self, now: int, interval_ns: int) -> None: pass
    def drain_restored(self, now: int, interval_ns: int) -> None: pass

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

    def __init__(self, trace: bool = True,
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
        self._registry = MetricsRegistry()  # hooks and merged chunks
        # The counts the ``registry`` view projects (aborted attempts
        # included: a trial's child recorder keeps them).  Queues and
        # timers register their counts objects, ledgers themselves:
        # never a kernel or an injector.
        self.queues: List[object] = []
        self.timers: List[object] = []
        self.rings: List[object] = []
        self.controllers: List[object] = []
        self.fault_ledgers: List[object] = []
        self.trial_ledgers: List[object] = []
        self.wallclock = wallclock
        reg = self._registry
        # engine (projected from ``queues``)
        for name, _, help_text in _QUEUE_COUNTERS:
            reg.counter(name, help_text).default
        reg.gauge("sim_queue_depth_high_water",
                  "max live events in the queue (high-water)").default
        # hrtimer (fires are projected from the lateness histogram,
        # the rest from ``timers``)
        reg.counter("hrtimer_fires_total",
                    "HRTimer handler invocations").default
        for name, _, help_text in _TIMER_COUNTERS:
            reg.counter(name, help_text).default
        self._timer_lateness = reg.histogram(
            "hrtimer_fire_lateness_ns",
            "fire time minus ideal expiry (jitter + injected latency)",
            buckets=LATENCY_BUCKETS_NS).default
        # ring buffer (projected from ``rings``)
        for name, _, help_text in _RING_COUNTERS:
            reg.counter(name, help_text).default
        reg.gauge("ringbuffer_depth_high_water",
                  "max pooled samples (high-water)").default
        # controller (cycles are projected from the batch histogram)
        reg.counter("kleb_drain_cycles_total",
                    "controller drain cycles").default
        self._drain_batch = reg.histogram(
            "kleb_drain_batch_size", "samples drained per cycle",
            buckets=SIZE_BUCKETS).default
        self._drain_latency = reg.histogram(
            "kleb_drain_cycle_ns", "simulated time per drain cycle",
            buckets=LATENCY_BUCKETS_NS).default
        # (these three are projected from ``controllers``)
        reg.counter("kleb_drain_shrinks_total",
                    "adaptive drain-interval halvings").default
        reg.counter("kleb_drain_restores_total",
                    "drain-interval restorations after healthy "
                    "cycles").default
        reg.counter("kleb_retries_total", "transient syscall retries",
                    label_names=("op",))
        # faults and runner (projected from the ledgers, recoveries
        # from ``controllers``, trials from the wall-time histogram)
        reg.counter("faults_landed_total", "injected faults by site",
                    label_names=("site",))
        reg.counter("faults_recovered_total", "recoveries observed by site",
                    label_names=("site",))
        reg.counter("trials_total", "trials completed (any outcome)").default
        reg.counter("trials_retried_total", "trial attempts retried").default
        reg.counter("trials_quarantined_total",
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
    # hrtimer
    # ------------------------------------------------------------------
    # Timer fires run thousands of times per simulated second, so the
    # hook mutates the pre-registered histogram directly instead of
    # going through ``observe`` — the lateness it receives is trusted
    # (non-negative by construction).
    def timer_fired(self, label: str, when: int, lateness_ns: int) -> None:
        hist = self._timer_lateness
        hist.counts[bisect_left(hist.bounds, lateness_ns)] += 1
        hist.sum += lateness_ns
        hist.count += 1
        publisher = self.publisher
        if publisher is not None:
            publisher.heartbeat(when)

    def timer_missed(self, label: str, when: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("timer-missed", "hrtimer", when,
                                {"timer": label}, category="hrtimer")

    def timer_overrun(self, label: str, when: int, skipped: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("timer-overrun", "hrtimer", when,
                                {"timer": label, "skipped": skipped},
                                category="hrtimer")

    # ------------------------------------------------------------------
    # controller
    # ------------------------------------------------------------------
    def drain_cycle(self, start_ns: int, end_ns: int, batch: int,
                    paused: bool, interval_ns: int) -> None:
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
        if self.tracer is not None:
            self.tracer.instant("drain-shrink", "controller", now,
                                {"interval_ns": interval_ns},
                                category="controller")

    def drain_restored(self, now: int, interval_ns: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("drain-restore", "controller", now,
                                {"interval_ns": interval_ns},
                                category="controller")

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
            reg = self._registry
            reg.counter("control_observations_total",
                        "closed-loop sensor observations folded in").default
            reg.counter("control_steps_total",
                        "closed-loop transitions by action",
                        label_names=("action",))
            control = {
                "level": reg.gauge(
                    "control_ladder_level_high_water",
                    "deepest degradation-ladder level reached").default,
                "overhead": reg.histogram(
                    "control_overhead_percent",
                    "smoothed monitoring overhead (percent of victim "
                    "cycles) per observation",
                    buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0)).default,
            }
            reg.counter("hrtimer_reprogram_total",
                        "in-place HRTimer period changes").default
            reg.counter("control_frozen_observations_total",
                        "drain cycles lost to injected decision "
                        "freezes").default
            self._control = control
        return control

    def timer_reprogrammed(self, label: str, when: int,
                           period_ns: int) -> None:
        self._control_metrics()  # the reprogram family is lazy too
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
        if self.tracer is not None:
            self.tracer.instant(f"control:{action}", "controller", now,
                                {"level": level, "period_ns": period_ns},
                                category="controller")

    def control_frozen(self, now: int) -> None:
        self._control_metrics()  # a freeze may precede any observation
        if self.tracer is not None:
            self.tracer.instant("control-frozen", "controller", now,
                                category="controller")

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def fault_landed(self, time_ns: int, site: str, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", "faults", time_ns,
                                {"site": site}, category="fault")

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
        if self.tracer is not None:
            self.tracer.instant("trial-retry", "runner", 0,
                                {"trial": trial, "attempt": attempt,
                                 "kind": kind}, category="runner")

    def trial_quarantined(self, trial: int, attempts: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("trial-quarantined", "runner", 0,
                                {"trial": trial, "attempts": attempts},
                                category="runner")
        publisher = self.publisher
        if publisher is not None:
            publisher.publish(0, "quarantined")

    # ------------------------------------------------------------------
    # the export view
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """A fresh registry: the hook-fed families plus a pure read of
        every queue, timer, ring, controller and ledger.  Counts add, a
        family or labelled series is touched only once non-zero, the
        high-water gauges are the max of the lifetime peaks, and timer
        fires, drain cycles and trials are their histograms' sample
        counts."""
        view = MetricsRegistry()
        view.merge(self._registry)
        # A fire, drain cycle or trial is one histogram sample; merged
        # chunks carry both families, so the counter is set, never
        # added to.
        for counter, histogram in _HISTOGRAM_COUNTS:
            view.get(counter).default.value = float(
                view.get(histogram).default.count)
        counts = [(name, (), sum(getattr(source, attr) for source in sources))
                  for sources, table in ((self.queues, _QUEUE_COUNTERS),
                                         (self.timers, _TIMER_COUNTERS),
                                         (self.rings, _RING_COUNTERS))
                  for name, attr, _ in table]
        # A non-zero reprogram count implies the (lazy) family exists:
        # every reprogram also fires ``timer_reprogrammed``.
        counts.append(("hrtimer_reprogram_total", (),
                       sum(timer.reprograms for timer in self.timers)))
        for state in self.controllers:
            counts += [
                ("kleb_retries_total", ("ioctl",), state.ioctl_retries),
                ("kleb_retries_total", ("read",), state.read_retries),
                ("kleb_retries_total", ("recovery-read",),
                 state.recovery_reads),
                ("kleb_drain_shrinks_total", (), state.drain_shrinks),
                ("kleb_drain_restores_total", (), state.drain_restores),
                ("faults_recovered_total", ("ioctl",),
                 state.ioctl_recoveries),
                ("faults_recovered_total", ("read",),
                 state.read_recoveries),
            ]
            control = state.control
            if control is not None:
                # Non-zero, these imply the control hooks registered
                # the (lazy) families on this recorder.
                counts += [("control_observations_total", (),
                            control.observations),
                           ("control_frozen_observations_total", (),
                            state.frozen_observations)]
                counts += [("control_steps_total", (action,),
                            control.ledger.count(action))
                           for action in ACTIONS]
        # A fault counts once: a trial ledger adds only the runner's
        # own faults (not its backoffs), since its survivor's injector
        # records are counted through their fault ledger.
        landed = Counter(record.site for ledger in self.fault_ledgers
                         for record in ledger.records)
        for ledger in self.trial_ledgers:
            landed["runner"] += sum(
                record.site == "runner" and record.kind != "retry-backoff"
                for record in ledger.records)
            counts += [("trials_retried_total", (), ledger.attempts - 1),
                       ("trials_quarantined_total", (), ledger.quarantined)]
        counts += [("faults_landed_total", (site,), count)
                   for site, count in landed.items()]
        for name, labels, count in counts:
            if count:
                view.get(name).labels(*labels).value += count
        view.get("sim_queue_depth_high_water").default.set_max(
            max((queue.peak for queue in self.queues), default=0))
        view.get("ringbuffer_depth_high_water").default.set_max(
            max((ring.peak for ring in self.rings), default=0))
        return view

    # ------------------------------------------------------------------
    # live telemetry
    # ------------------------------------------------------------------
    def live_sample(self) -> Dict[str, object]:
        """The progress fields a live snapshot carries: the scalar
        counts and the full metrics document, read from one view."""
        view = self.registry
        faults = view.get("faults_landed_total").series.values()
        return {
            "samples": int(
                view.get("ringbuffer_pushes_total").default.value),
            "drops": int(view.get("ringbuffer_dropped_total").default.value),
            "timer_fires": int(view.get("hrtimer_fires_total").default.value),
            "faults": int(sum(series.value for series in faults)),
            "metrics": view.to_json(),
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
        self._registry.merge(MetricsRegistry.from_json(chunk["metrics"]))

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
