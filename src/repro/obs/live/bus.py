"""The snapshot bus: streaming progress out of running trials.

Everything ``repro.obs`` records is exported *after* a run; this module
is the live half.  Trial workers — the in-process serial loop and the
``jobs=N`` fork-pool workers alike — periodically publish immutable,
picklable :class:`Snapshot` objects describing their progress (trial
index, simulated time, sample/drop/fault counts, degradation-ladder
level, and the trial's full metrics document) onto a process-safe
channel; a drainer thread in the parent folds them into a
:class:`LiveState` that the HTTP plane (:mod:`repro.obs.live.server`)
and the watchdog (:mod:`repro.obs.live.watchdog`) read.

The contract that keeps live telemetry honest:

* **Publication never steers.**  A snapshot is a *read-only copy* of
  already-computed values; building one draws no randomness and
  mutates no simulation state, so golden digests are byte-identical
  with the bus armed or not.  Publication *cadence* is wall-clock
  driven (and therefore nondeterministic) — which is fine precisely
  because snapshots are copies: a missed heartbeat changes what an
  observer sees mid-run, never what the run computes.
* **Finals are unconditional.**  Every trial publishes a last snapshot
  at its terminal status (``done``/``quarantined``) regardless of
  cadence, so the merged view converges: folding each trial's latest
  metrics document in trial order equals the post-hoc registry —
  pinned by a Hypothesis property over arbitrary cadences.
* **One channel for every topology.**  Serial trials and fork-pool
  workers publish through the same ``multiprocessing`` queue (workers
  inherit it by fork); the parent's drainer thread is the only
  consumer, so ``LiveState`` needs one lock and no cross-process
  shared memory.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue_mod
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Default seconds between heartbeat publications from one trial.
DEFAULT_PUBLISH_INTERVAL_S = 0.25

#: Heartbeat calls between wall-clock checks: the hot hooks call
#: :meth:`LivePublisher.heartbeat` thousands of times per host second,
#: and one ``time.monotonic()`` per call would be the dominant cost of
#: an armed-but-idle bus.  Striding keeps the disarmed-path cost to a
#: counter increment and a mask.
_HEARTBEAT_STRIDE = 32


@dataclass(frozen=True)
class Snapshot:
    """One immutable, picklable progress report from one trial.

    ``metrics`` is the trial recorder's full
    :meth:`~repro.obs.metrics.MetricsRegistry.to_json` document —
    cumulative, not a delta — so the merged live view is simply the
    trial-ordered fold of each trial's *latest* snapshot, and a lost
    heartbeat costs staleness, never correctness.
    """

    trial: int
    seq: int
    status: str  # "running" | "done" | "quarantined"
    sim_now_ns: int
    wall_s: float
    samples: int
    drops: int
    timer_fires: int
    faults: int
    level: int
    overhead_percent: Optional[float]
    budget_percent: Optional[float]
    metrics: Dict[str, object]


_TERMINAL = ("done", "quarantined")


class LiveState:
    """The parent-side merged view of every trial's latest snapshot.

    Thread-safe: the bus drainer writes, HTTP handler threads read.
    Seeded with a *base* metrics document (the parent recorder's
    pre-registered, all-zero registry) so ``/metrics`` exposes every
    family from the first scrape, before any snapshot has arrived.
    """

    def __init__(self, base_metrics: Optional[Dict[str, object]] = None,
                 run_label: str = "") -> None:
        self._lock = threading.Lock()
        self._base = base_metrics
        self._trials: Dict[int, Dict[str, object]] = {}
        self._trial_metrics: Dict[int, Dict[str, object]] = {}
        self.run_label = run_label
        self.started_wall_s = time.time()
        self.snapshots_applied = 0
        self._listeners: List[Callable[[Snapshot], None]] = []

    def add_listener(self, listener: Callable[[Snapshot], None]) -> None:
        """Register a callback run (under the state lock) per snapshot."""
        self._listeners.append(listener)

    def apply(self, snapshot: Snapshot) -> None:
        """Fold one snapshot in; notify listeners (the watchdog)."""
        with self._lock:
            self.snapshots_applied += 1
            self._trials[snapshot.trial] = {
                "trial": snapshot.trial,
                "status": snapshot.status,
                "seq": snapshot.seq,
                "sim_now_ns": snapshot.sim_now_ns,
                "samples": snapshot.samples,
                "drops": snapshot.drops,
                "timer_fires": snapshot.timer_fires,
                "faults": snapshot.faults,
                "level": snapshot.level,
                "overhead_percent": snapshot.overhead_percent,
                "budget_percent": snapshot.budget_percent,
                "published_wall_s": snapshot.wall_s,
                "updated_wall_s": time.time(),
            }
            self._trial_metrics[snapshot.trial] = snapshot.metrics
            for listener in self._listeners:
                listener(snapshot)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def trial_rows(self) -> List[Dict[str, object]]:
        """Per-trial status rows, in trial order (copies)."""
        with self._lock:
            return [dict(self._trials[trial])
                    for trial in sorted(self._trials)]

    def counts(self) -> Dict[str, int]:
        """Trial counts by status plus total snapshots applied."""
        with self._lock:
            rows = list(self._trials.values())
            return {
                "running": sum(1 for row in rows
                               if row["status"] not in _TERMINAL),
                "done": sum(1 for row in rows if row["status"] == "done"),
                "quarantined": sum(1 for row in rows
                                   if row["status"] == "quarantined"),
                "snapshots": self.snapshots_applied,
            }

    def merged_registry(self) -> MetricsRegistry:
        """Trial-ordered fold of each trial's latest metrics document.

        With every trial's final snapshot applied this equals the
        post-hoc parent registry (same fold, same order) — the bridge
        that lets ``/metrics`` reuse the existing Prometheus exporter
        unchanged.
        """
        with self._lock:
            base = self._base
            documents = [self._trial_metrics[trial]
                         for trial in sorted(self._trial_metrics)]
        registry = (MetricsRegistry.from_json(base) if base else
                    MetricsRegistry())
        for document in documents:
            if document:  # tolerate metrics-less snapshots
                registry.merge(MetricsRegistry.from_json(document))
        return registry

    def runs_document(self) -> Dict[str, object]:
        """The ``/runs`` JSON body: run header plus per-trial rows."""
        counts = self.counts()
        return {
            "run": {
                "label": self.run_label,
                "started_wall_s": self.started_wall_s,
                "uptime_s": time.time() - self.started_wall_s,
                "trials_seen": counts["running"] + counts["done"]
                + counts["quarantined"],
                **counts,
            },
            "trials": self.trial_rows(),
        }


class SnapshotBus:
    """The process-safe channel between trial workers and the parent.

    Built on a fork-context ``multiprocessing.SimpleQueue`` so pool
    workers inherit the write end at fork time with no extra plumbing
    (put is lock-protected on POSIX, so concurrent workers are safe);
    falls back to an in-process queue where ``fork`` is unavailable —
    exactly the environments where the runner cannot fan out anyway.
    Start the drainer before publishing; stop() is idempotent.
    """

    def __init__(self, state: Optional[LiveState] = None) -> None:
        self.state = state if state is not None else LiveState()
        if "fork" in multiprocessing.get_all_start_methods():
            self._queue = multiprocessing.get_context("fork").SimpleQueue()
        else:  # pragma: no cover - non-fork platforms
            self._queue = _queue_mod.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._sync_lock = threading.Lock()
        self._sync_cond = threading.Condition(self._sync_lock)
        self._sync_sent = 0
        self._sync_seen = 0
        self.published = 0

    # ------------------------------------------------------------------
    # Write side (any process)
    # ------------------------------------------------------------------
    def publish(self, snapshot: Snapshot) -> None:
        self.published += 1
        self._queue.put(snapshot)

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drainer thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._drain,
                                        name="repro-live-bus", daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if isinstance(item, tuple) and item and item[0] == "sync":
                with self._sync_cond:
                    self._sync_seen = max(self._sync_seen, item[1])
                    self._sync_cond.notify_all()
                continue
            self.state.apply(item)

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Block until everything published *before* this call is
        applied to the state (a sync marker round-trip).  Returns False
        on timeout or when the drainer is not running."""
        if self._thread is None or not self._thread.is_alive():
            return False
        with self._sync_cond:
            self._sync_sent += 1
            token = self._sync_sent
        self._queue.put(("sync", token))
        deadline = time.monotonic() + timeout_s
        with self._sync_cond:
            while self._sync_seen < token:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._sync_cond.wait(remaining)
        return True

    def stop(self) -> None:
        """Drain outstanding snapshots, then stop the drainer thread."""
        thread = self._thread
        if thread is None:
            return
        self.flush()
        self._queue.put(None)
        thread.join(timeout=5.0)
        self._thread = None


class LivePublisher:
    """The trial-side publisher: builds snapshots from a bound recorder.

    One publisher per trial recorder (cloned via :meth:`for_trial` by
    ``Recorder.child_for_trial``, so fork-pool workers inherit a
    correctly-stamped instance).  The hot hooks call
    :meth:`heartbeat`, which is strided and wall-clock gated; terminal
    statuses go through :meth:`publish`, which is unconditional.

    ``gate`` replaces the wall-clock cadence with a deterministic
    callable (publish when it returns True) — the handle the cadence
    Hypothesis property drives.
    """

    def __init__(self, bus: SnapshotBus,
                 interval_s: float = DEFAULT_PUBLISH_INTERVAL_S,
                 trial: int = 0,
                 gate: Optional[Callable[[], bool]] = None) -> None:
        self.bus = bus
        self.interval_s = interval_s
        self.trial = trial
        self.gate = gate
        self._recorder = None
        self._calls = 0
        self._seq = 0
        self._last_publish = 0.0
        # Live fields the recorder's control hooks keep fresh.
        self.level = 0
        self.overhead_percent: Optional[float] = None
        self.budget_percent: Optional[float] = None

    def bind(self, recorder) -> None:
        """Attach the recorder whose registry snapshots are built from."""
        self._recorder = recorder

    def for_trial(self, trial: int) -> "LivePublisher":
        """A fresh publisher for one trial's child recorder."""
        return LivePublisher(self.bus, interval_s=self.interval_s,
                             trial=trial, gate=self.gate)

    def heartbeat(self, sim_now_ns: int) -> None:
        """Cadence-gated publication from a hot hook site."""
        if self.gate is not None:
            if self.gate():
                self.publish(sim_now_ns, "running")
            return
        self._calls += 1
        if self._calls % _HEARTBEAT_STRIDE:
            return
        now = time.monotonic()
        if now - self._last_publish < self.interval_s:
            return
        self._last_publish = now
        self.publish(sim_now_ns, "running")

    def publish(self, sim_now_ns: int, status: str = "running") -> None:
        """Unconditionally build and publish one snapshot."""
        recorder = self._recorder
        if recorder is None:
            return
        sample = recorder.live_sample()
        self._seq += 1
        self.bus.publish(Snapshot(
            trial=self.trial,
            seq=self._seq,
            status=status,
            sim_now_ns=int(sim_now_ns),
            wall_s=time.time(),
            level=self.level,
            overhead_percent=self.overhead_percent,
            budget_percent=self.budget_percent,
            **sample,
        ))
