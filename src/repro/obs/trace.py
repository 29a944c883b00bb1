"""Structured span tracing on the simulated clock.

The tracer records **named spans** (work with a start and a duration)
and **instant events** (points in time) against the simulation's
integer-nanosecond clock, and exports them as Chrome trace-event JSON
— loadable directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` — or as JSONL (one event object per line, for
streaming consumers and ``grep``).

Design constraints, in order:

1. **Determinism.**  Event content is a pure function of the simulated
   run: timestamps are simulated nanoseconds, ordering is emission
   order, and export is canonical (sorted keys, fixed separators), so
   a fixed seed yields a byte-identical trace file — which the golden
   suite pins with a SHA-256 digest.  Wall-clock annotation is opt-in
   (``wallclock=True``) and explicitly breaks the digest.
2. **Cheapness.**  Events are stored as plain tuples; recording is an
   append.  No I/O, no serialization, no dict churn until export.

The Chrome mapping: each *trial* is a trace ``pid`` (so ``jobs=N``
populations land as N processes in Perfetto) and each instrumented
subsystem is a ``tid`` (track) within it, named via ``M`` metadata
events.  Spans are ``X`` (complete) events; instants are ``i`` with
thread scope.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]

# Track (tid) layout inside each trial's process.  Fixed small ints so
# traces from different runs/workers line up in Perfetto.
TRACKS = {
    "runner": 0,
    "engine": 1,
    "hrtimer": 2,
    "ringbuffer": 3,
    "controller": 4,
    "tool": 5,
    "faults": 6,
    "live": 7,
}

_NS_PER_US = 1000.0

# Internal event tuples: (phase, name, category, ts_ns, dur_ns, pid,
# tid, args).  ``dur_ns`` is None for instants.
_Event = Tuple[str, str, str, int, Optional[int], int, int,
               Optional[Dict[str, object]]]


class Tracer:
    """Append-only trace event log for one run.

    Two optional sinks widen the plumbing without changing the
    deterministic export:

    * ``flight`` — a :class:`~repro.obs.live.flight.FlightRecorder`
      (anything with a ``record(event_tuple)`` method) that receives a
      copy of every event as it is recorded, keeping a bounded ring of
      the recent past even when the full trace is enormous;
    * ``retain=False`` — flight-only mode: events flow to the flight
      ring but are **not** accumulated in memory, so a run that never
      writes a trace file pays O(ring) memory instead of O(run).
      ``dump_events``/exports see an empty log in this mode.
    """

    def __init__(self, wallclock: bool = False, flight=None,
                 retain: bool = True) -> None:
        self.wallclock = wallclock
        self._events: List[_Event] = []
        self._flight = flight
        self.retain = retain
        # Default process id for recorded events; the runner points this
        # at the trial index via the per-trial child recorder.
        self.pid = 0

    def __len__(self) -> int:
        return len(self._events)

    def _record(self, event: _Event) -> None:
        """The single choke point every recorded event passes through."""
        if self.retain:
            self._events.append(event)
        if self._flight is not None:
            self._flight.record(event)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _wall_args(self, args: Optional[Dict[str, object]]
                   ) -> Optional[Dict[str, object]]:
        if not self.wallclock:
            return args
        stamped = dict(args) if args else {}
        stamped["wall_ns"] = time.monotonic_ns()
        return stamped

    def instant(self, name: str, track: str, ts_ns: int,
                args: Optional[Dict[str, object]] = None,
                category: str = "obs") -> None:
        """Record a point event at simulated time ``ts_ns``."""
        self._record((
            "i", name, category, ts_ns, None, self.pid,
            TRACKS.get(track, 0), self._wall_args(args),
        ))

    def complete(self, name: str, track: str, start_ns: int, dur_ns: int,
                 args: Optional[Dict[str, object]] = None,
                 category: str = "obs") -> None:
        """Record a finished span covering ``[start_ns, start_ns+dur_ns]``."""
        self._record((
            "X", name, category, start_ns, dur_ns, self.pid,
            TRACKS.get(track, 0), self._wall_args(args),
        ))

    # ------------------------------------------------------------------
    # Chunk shipping (worker -> parent, trial-ordered merge)
    # ------------------------------------------------------------------
    def dump_events(self) -> List[_Event]:
        """Plain-data event list, picklable across process boundaries."""
        return list(self._events)

    def absorb_events(self, events: List) -> None:
        """Append a chunk of events recorded elsewhere (trial-ordered
        merging keeps the combined trace deterministic)."""
        self._events.extend(tuple(event) for event in events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, object]]:
        """Chrome trace-event objects (ts/dur in microseconds)."""
        out: List[Dict[str, object]] = []
        for ph, name, cat, ts_ns, dur_ns, pid, tid, args in self._events:
            event: Dict[str, object] = {
                "ph": ph, "name": name, "cat": cat,
                "ts": ts_ns / _NS_PER_US, "pid": pid, "tid": tid,
            }
            if ph == "X":
                event["dur"] = (dur_ns or 0) / _NS_PER_US
            elif ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = dict(args)
            out.append(event)
        return out

    def _metadata_events(self) -> List[Dict[str, object]]:
        """``M`` events naming each (pid, tid) pair seen in the trace."""
        pids = sorted({event[5] for event in self._events})
        pairs = sorted({(event[5], event[6]) for event in self._events})
        track_names = {tid: name for name, tid in TRACKS.items()}
        out: List[Dict[str, object]] = []
        for pid in pids:
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"trial {pid}"},
            })
        for pid, tid in pairs:
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track_names.get(tid, f"track {tid}")},
            })
        return out

    def to_chrome_json(self) -> str:
        """The full Chrome trace document as canonical JSON text."""
        document = {
            "displayTimeUnit": "ns",
            "traceEvents": self._metadata_events() + self.to_dicts(),
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":"))

    def to_jsonl(self) -> str:
        """One canonical-JSON event per line (no metadata events)."""
        return "\n".join(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in self.to_dicts()
        )

    def write(self, path: PathLike) -> None:
        """Write the trace; ``.jsonl`` suffix selects JSONL, anything
        else gets the Chrome/Perfetto document.  A trailing ``.gz``
        gzips either format transparently."""
        from repro.io import effective_suffix, write_artifact_text

        if effective_suffix(path) == ".jsonl":
            write_artifact_text(path, self.to_jsonl() + "\n")
        else:
            write_artifact_text(path, self.to_chrome_json() + "\n")
