"""Uncore (per-socket) performance monitoring: IMC bandwidth counters.

Real Intel server parts expose memory traffic through *uncore* PMUs —
fixed-function and programmable counters in the integrated memory
controller (IMC) and CHA boxes, outside any core.  K-LEB-style tools
read them to attribute bandwidth to the socket while per-core PMUs
attribute instructions and cache misses to tasks.

The model here is deliberately small but structurally faithful:

* A private mini-catalogue of :class:`~repro.hw.events.Event` objects
  (CAS read/write, LLC lookup/miss) with *restricted counter masks*,
  placed onto the uncore's programmable counters by the same
  constraint scheduler (:func:`repro.hw.schedule.assign_counters`) the
  core PMU uses — uncore boxes have the same "this event only counts
  on counters 0/1" erratum class as the core.
* 48-bit wrapping counters, mirroring :class:`repro.hw.pmu.Pmu`.
* Traffic is fed per lockstep window from the shared LLC's miss delta
  (every LLC miss is a line fill from DRAM = one CAS read); writeback
  traffic is modelled as a configurable fraction of reads, carried in
  a fractional accumulator so the count stream is deterministic.
* Bandwidth is exposed EWMA-smoothed, the shape monitoring dashboards
  actually consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PMUError
from repro.hw import events as ev
from repro.hw import schedule as sched

#: Programmable counters per uncore box (IMC-style: fewer than core).
NUM_UNCORE_COUNTERS = 4

#: Bytes moved per CAS transaction (one cache line).
CACHE_LINE_BYTES = 64

_UNCORE_KIND = ev.EventKind.MICROARCHITECTURAL

#: The uncore event mini-catalogue.  CAS events carry a restricted
#: counter mask (legal only on counters 0/1, like real IMC errata);
#: LLC events may land anywhere.
UNCORE_EVENTS: Tuple[ev.Event, ...] = (
    ev.Event(name="UNC_IMC_CAS_READS", select=0x04, umask=0x03,
             kind=_UNCORE_KIND, counter_mask=0b0011,
             description="IMC column-address-strobe read transactions"),
    ev.Event(name="UNC_IMC_CAS_WRITES", select=0x04, umask=0x0C,
             kind=_UNCORE_KIND, counter_mask=0b0011,
             description="IMC column-address-strobe write transactions"),
    ev.Event(name="UNC_LLC_LOOKUPS", select=0x34, umask=0x11,
             kind=_UNCORE_KIND, counter_mask=0b1111,
             description="Shared-LLC lookups from any core"),
    ev.Event(name="UNC_LLC_MISSES", select=0x34, umask=0x41,
             kind=_UNCORE_KIND, counter_mask=0b1111,
             description="Shared-LLC misses (DRAM line fills)"),
)


class UncorePmu:
    """Per-socket bandwidth counters with EWMA-smoothed readout.

    Args:
        socket: socket index (labelling only).
        ewma_alpha: smoothing weight of the newest window's bandwidth.
        writeback_fraction: modelled dirty-line writeback traffic as a
            fraction of read (fill) traffic.
        counter_width_bits: wrap width; 48 matches core counters, tests
            narrow it to exercise wrap accounting cheaply.
    """

    def __init__(self, socket: int = 0, ewma_alpha: float = 0.2,
                 writeback_fraction: float = 0.3,
                 counter_width_bits: int = 48) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise PMUError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if not 0.0 <= writeback_fraction <= 1.0:
            raise PMUError(
                "writeback_fraction must be in [0, 1], "
                f"got {writeback_fraction}")
        if counter_width_bits <= 0:
            raise PMUError(
                f"counter width must be positive, got {counter_width_bits}")
        self.socket = socket
        self.ewma_alpha = ewma_alpha
        self.writeback_fraction = writeback_fraction
        self.counter_width_bits = counter_width_bits
        self._wrap = 1 << counter_width_bits
        self.assignment: Optional[sched.CounterAssignment] = None
        self._events_by_name: Dict[str, ev.Event] = {}
        self._counters: List[int] = [0] * NUM_UNCORE_COUNTERS
        self._wb_acc = 0.0
        self._smoothed: Optional[float] = None
        self.windows_observed = 0
        self.program()

    # -- programming -----------------------------------------------------
    def program(self, events: Sequence[ev.Event] = UNCORE_EVENTS) -> None:
        """Place ``events`` onto the uncore counters.

        Goes through :func:`repro.hw.schedule.assign_counters` so the
        restricted counter masks are honoured and impossible requests
        fail with the scheduler's Hall-violator diagnostic.
        """
        self.assignment = sched.assign_counters(
            list(events), num_programmable=NUM_UNCORE_COUNTERS)
        self._events_by_name = {event.name: event for event in events}
        self._counters = [0] * NUM_UNCORE_COUNTERS

    def slot_of(self, name: str) -> int:
        if self.assignment is None:
            raise PMUError("uncore PMU is not programmed")
        return self.assignment.slot_of(name)

    # -- counter readout -------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Current counter value per programmed event name."""
        if self.assignment is None:
            return {}
        return {name: self._counters[slot]
                for name, slot in self.assignment.programmable}

    def _add(self, name: str, amount: int) -> None:
        if amount <= 0 or name not in self._events_by_name:
            return
        slot = self.slot_of(name)
        value = self._counters[slot] + amount
        if value >= self._wrap:
            value -= self._wrap
        self._counters[slot] = value

    # -- traffic feed ----------------------------------------------------
    def advance_window(self, elapsed_ns: int, llc_misses: int,
                       llc_lookups: int) -> None:
        """Account one lockstep window of socket traffic.

        ``llc_misses``/``llc_lookups`` are the shared LLC's deltas over
        the window.  Misses become CAS reads (line fills); writebacks
        are ``writeback_fraction`` of reads via a fractional accumulator
        so fractions never round away deterministically.
        """
        if elapsed_ns < 0:
            raise PMUError(f"elapsed_ns must be >= 0, got {elapsed_ns}")
        if llc_misses < 0 or llc_lookups < 0:
            raise PMUError("llc traffic deltas must be >= 0")
        reads = llc_misses
        self._wb_acc += reads * self.writeback_fraction
        writes = int(self._wb_acc)
        self._wb_acc -= writes
        self._add("UNC_IMC_CAS_READS", reads)
        self._add("UNC_IMC_CAS_WRITES", writes)
        self._add("UNC_LLC_LOOKUPS", llc_lookups)
        self._add("UNC_LLC_MISSES", llc_misses)
        self.windows_observed += 1
        if elapsed_ns > 0:
            transferred = (reads + writes) * CACHE_LINE_BYTES
            bytes_per_sec = transferred * 1e9 / elapsed_ns
            if self._smoothed is None:
                self._smoothed = bytes_per_sec
            else:
                self._smoothed += self.ewma_alpha * (bytes_per_sec
                                                     - self._smoothed)

    # -- bandwidth readout -----------------------------------------------
    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """EWMA-smoothed socket memory bandwidth."""
        return self._smoothed if self._smoothed is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mb = self.bandwidth_bytes_per_sec / 1e6
        return f"UncorePmu(socket={self.socket}, {mb:.1f} MB/s)"
