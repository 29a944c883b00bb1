"""Flight recorder: a bounded ring of the recent trace past.

A long live run cannot afford full tracing, but the moment something
goes wrong — a trial is quarantined, the watchdog trips, the process
crashes — the *recent* past is exactly what a post-mortem needs.  The
flight recorder keeps that past at O(1) memory: one bounded ring of
trace-event tuples per subsystem track, fed from the tracer's single
record choke point (:meth:`repro.obs.trace.Tracer._record`), so it
sees every span and instant the hooks emit **even when full tracing is
off** (the recorder runs the tracer in non-retaining mode then — see
``retain`` in :class:`~repro.obs.trace.Tracer`).

A serial run's trials record straight into the run's ring.  A trial
in a fork-pool worker records into its own ring of the same capacity,
whose :meth:`~FlightRecorder.tail` rides home in the trial's obs chunk
and is folded into the run's ring in trial order
(:meth:`~FlightRecorder.absorb`) — so a ``jobs=N`` run-end dump equals
the serial one.

On a trigger, :meth:`FlightRecorder.dump` snapshots the rings into a
plain JSON document (Chrome trace-event dicts grouped by track, newest
last) and :meth:`write` lands it as ``<out>.flight.json``.  Dumps are
cheap and idempotent; the rings keep recording through them.

The ring append is a single ``deque.append`` under the GIL, so feeding
it from the simulation thread while the watchdog dumps from the bus
drainer thread needs no locking — ``dump`` copies each ring with
``list(ring)``, which is likewise atomic enough for a diagnostic
artifact.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.obs.trace import TRACKS

PathLike = Union[str, Path]

#: Default events retained per subsystem track.
DEFAULT_RING_CAPACITY = 256

_TRACK_NAMES = {tid: name for name, tid in TRACKS.items()}
_NS_PER_US = 1000.0


def _event_to_dict(seq: int, event: Tuple) -> Dict[str, object]:
    """One internal event tuple as a Chrome trace-event dict + seq."""
    ph, name, cat, ts_ns, dur_ns, pid, tid, args = event
    out: Dict[str, object] = {
        "seq": seq, "ph": ph, "name": name, "cat": cat,
        "ts": ts_ns / _NS_PER_US, "pid": pid, "tid": tid,
    }
    if ph == "X":
        out["dur"] = (dur_ns or 0) / _NS_PER_US
    elif ph == "i":
        out["s"] = "t"
    if args:
        out["args"] = dict(args)
    return out


class FlightRecorder:
    """Per-track bounded rings of the most recent trace events."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: Dict[int, Deque[Tuple[int, Tuple]]] = {}
        self._seq = 0
        self.recorded = 0
        self.dumps = 0

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def record(self, event: Tuple) -> None:
        """Append one tracer event tuple to its track's ring."""
        self._seq += 1
        self.recorded += 1
        tid = event[6]
        ring = self._rings.get(tid)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[tid] = ring
        ring.append((self._seq, event))

    def tail(self) -> Dict[str, object]:
        """The retained events as plain picklable data, for
        :meth:`absorb` into another ring (a trial chunk's share)."""
        return {"recorded": self.recorded,
                "rings": {tid: list(ring)
                          for tid, ring in self._rings.items()}}

    def absorb(self, tail: Dict[str, object]) -> None:
        """Fold another ring's :meth:`tail` in as if its events had been
        recorded here next: sequence numbers continue from this ring's,
        and each track keeps only its newest ``capacity`` events."""
        base = self._seq
        for tid, events in tail["rings"].items():
            ring = self._rings.get(tid)
            if ring is None:
                ring = deque(maxlen=self.capacity)
                self._rings[tid] = ring
            ring.extend((base + seq, event) for seq, event in events)
        self._seq += tail["recorded"]
        self.recorded += tail["recorded"]

    def instant(self, name: str, track: str, ts_ns: int,
                args: Optional[Dict[str, object]] = None,
                category: str = "live") -> None:
        """Record an ad-hoc instant directly (watchdog ``health:*``)."""
        self.record(("i", name, category, ts_ns, None, 0,
                     TRACKS.get(track, 0), args))

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(self, reason: str,
             extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The ring contents as a plain JSON-able post-mortem document."""
        self.dumps += 1
        tracks: Dict[str, List[Dict[str, object]]] = {}
        for tid in sorted(self._rings):
            events = [_event_to_dict(seq, event)
                      for seq, event in list(self._rings[tid])]
            tracks[_TRACK_NAMES.get(tid, f"track {tid}")] = events
        document: Dict[str, object] = {
            "format": "repro-flight-v1",
            "reason": reason,
            "wall_time_s": time.time(),
            "ring_capacity": self.capacity,
            "events_recorded": self.recorded,
            "events_retained": len(self),
            "tracks": tracks,
        }
        if extra:
            document.update(extra)
        return document

    def write(self, path: PathLike, reason: str,
              extra: Optional[Dict[str, object]] = None) -> Path:
        """Dump and land the document at ``path`` (``<out>.flight.json``)."""
        path = Path(path)
        document = self.dump(reason, extra)
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n")
        return path
