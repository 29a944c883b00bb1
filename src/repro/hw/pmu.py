"""Performance monitoring unit.

Implements the counter architecture the paper describes for modern
Intel parts (§II-A): **three fixed counters** (instructions retired,
unhalted core cycles, unhalted reference cycles) and **four
programmable counters** driven by event-select registers with USR/OS
privilege masks, enable bits, 48-bit width, and overflow interrupt
delivery.

Tools program the PMU through :meth:`Pmu.wrmsr` exactly as a driver
would; :meth:`Pmu.rdpmc` models the unprivileged fast-read instruction
LiMiT uses from user space.

Counts are delivered by the simulated core and kernel via
:meth:`accumulate_epoch`; :meth:`accumulate` is its dict-shaped
convenience for tests and micro-benchmarks.
Internally counters keep fractional accumulators (rate-based workload
blocks may contribute fractional events for a partial slice); reads
expose the floored integer value, as hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Tuple)

from repro.errors import PMUError
from repro.hw import events as ev
from repro.hw.msr import (
    MSR,
    MsrFile,
    EVTSEL_EVENT_MASK,
    EVTSEL_UMASK_MASK,
    EVTSEL_USR,
    EVTSEL_OS,
    EVTSEL_INT,
    EVTSEL_EN,
)

if TYPE_CHECKING:  # schedule imports this module's counter counts
    from repro.hw.schedule import CounterAssignment

NUM_PROGRAMMABLE = 4
NUM_FIXED = 3
COUNTER_WIDTH_BITS = 48
_COUNTER_WRAP = 1 << COUNTER_WIDTH_BITS

# rdpmc index space: fixed counters are selected with bit 30 set.
RDPMC_FIXED_FLAG = 1 << 30

OverflowHandler = Callable[[List[int]], None]

_PMC_MSRS = (MSR.IA32_PMC0, MSR.IA32_PMC1, MSR.IA32_PMC2, MSR.IA32_PMC3)
_EVTSEL_MSRS = (
    MSR.IA32_PERFEVTSEL0,
    MSR.IA32_PERFEVTSEL1,
    MSR.IA32_PERFEVTSEL2,
    MSR.IA32_PERFEVTSEL3,
)
_FIXED_MSRS = (MSR.IA32_FIXED_CTR0, MSR.IA32_FIXED_CTR1, MSR.IA32_FIXED_CTR2)
_GLOBAL_STATUS = MSR.IA32_PERF_GLOBAL_STATUS

# (plan_user, plan_kernel, counter_names, pmi_counters, counting,
#  epoch_user, epoch_kernel).  The epoch tables memoize, per event-name
# tuple, the flat apply list ``accumulate_epoch`` derives from the
# name->counter plan; they ride in the cache entry so a reinstalled
# register signature brings its compiled epochs back with it.
_CompiledPlan = Tuple[
    Dict[str, List[Tuple[bool, int]]],
    Dict[str, List[Tuple[bool, int]]],
    Tuple[Optional[str], ...],
    frozenset,
    bool,
    Dict[Tuple[str, ...], List[Tuple[int, bool, int]]],
    Dict[Tuple[str, ...], List[Tuple[int, bool, int]]],
]


@dataclass(frozen=True)
class CounterSnapshot:
    """Point-in-time values of every counter, keyed by event name."""

    timestamp: int
    fixed: Tuple[int, ...]
    programmable: Tuple[int, ...]
    by_event: Dict[str, int]


class Pmu:
    """One core's performance monitoring unit."""

    def __init__(self, msr_file: Optional[MsrFile] = None) -> None:
        self.msrs = msr_file if msr_file is not None else MsrFile()
        self._pmc = [0.0] * NUM_PROGRAMMABLE
        self._fixed = [0.0] * NUM_FIXED
        self._overflow_handler: Optional[OverflowHandler] = None
        # Overflow status per counter index: programmable 0..3 then
        # fixed 32..34, matching IA32_PERF_GLOBAL_STATUS bit layout.
        self._pending_overflow: List[int] = []
        # Compiled accumulation plan, keyed on the MSR file's write
        # generation: event name -> [(is_fixed, counter index)] for each
        # privilege ring.  -1 forces a compile on first use.
        self._plan_version = -1
        self._plan_user: Dict[str, List[Tuple[bool, int]]] = {}
        self._plan_kernel: Dict[str, List[Tuple[bool, int]]] = {}
        self._counter_names: Tuple[Optional[str], ...] = (None,) * NUM_PROGRAMMABLE
        self._pmi_counters: frozenset = frozenset()
        self._counting = False
        # Epoch apply lists for the active plan, keyed by event-name
        # tuple: [(value index, is_fixed, counter index)].
        self._epoch_user: Dict[Tuple[str, ...],
                               List[Tuple[int, bool, int]]] = {}
        self._epoch_kernel: Dict[Tuple[str, ...],
                                 List[Tuple[int, bool, int]]] = {}
        # Plans are a pure function of the six control registers, so a
        # version bump with an already-seen register signature (global
        # enable/disable toggles per context switch, multiplex rotation
        # through a small set of groups) reinstalls the compiled plan
        # instead of re-deriving it.  A PMU lives for one trial and
        # sees a handful of signatures, so the cache is unbounded.
        self._plan_cache: Dict[Tuple[int, ...], _CompiledPlan] = {}
        # Row-read plans for ``counter_row``, keyed on the programmable
        # counter-name layout: (ordered unique names, per-name counter
        # source).  A pure function of _counter_names, so one entry per
        # distinct programmed layout.
        self._row_plans: Dict[
            Tuple[Optional[str], ...],
            Tuple[Tuple[str, ...], List[Tuple[bool, int]]],
        ] = {}

    # ------------------------------------------------------------------
    # Register interface (what drivers use)
    # ------------------------------------------------------------------
    def wrmsr(self, address: int, value: int) -> None:
        """Write an MSR, intercepting counter-value registers."""
        if address in _PMC_MSRS:
            index = _PMC_MSRS.index(address)
            self._pmc[index] = float(int(value) % _COUNTER_WRAP)
            self._drop_pending(index)
            return
        if address in _FIXED_MSRS:
            index = _FIXED_MSRS.index(address)
            self._fixed[index] = float(int(value) % _COUNTER_WRAP)
            return
        self.msrs.write(address, value)

    def rdpmc(self, index: int) -> int:
        """Unprivileged counter read (the LiMiT fast path).

        Programmable counters are addressed ``0..3``; fixed counters are
        addressed ``RDPMC_FIXED_FLAG | 0..2`` as on real hardware.
        """
        if index & RDPMC_FIXED_FLAG:
            fixed_index = index & ~RDPMC_FIXED_FLAG
            if not 0 <= fixed_index < NUM_FIXED:
                raise PMUError(f"rdpmc of invalid fixed counter {fixed_index}")
            return int(self._fixed[fixed_index])
        if not 0 <= index < NUM_PROGRAMMABLE:
            raise PMUError(f"rdpmc of invalid counter {index}")
        return int(self._pmc[index])

    def set_overflow_handler(self, handler: Optional[OverflowHandler]) -> None:
        """Register the PMI delivery callback (None to disconnect)."""
        self._overflow_handler = handler

    # ------------------------------------------------------------------
    # Convenience programming helpers (used by tool drivers)
    # ------------------------------------------------------------------
    def program_counter(self, index: int, event_name: str, *, user: bool = True,
                        kernel: bool = False, interrupt_on_overflow: bool = False,
                        enable: bool = True) -> None:
        """Program one programmable counter for ``event_name``."""
        if not 0 <= index < NUM_PROGRAMMABLE:
            raise PMUError(f"no programmable counter {index}")
        event = ev.lookup(event_name)
        value = event.code & (EVTSEL_EVENT_MASK | EVTSEL_UMASK_MASK)
        if user:
            value |= EVTSEL_USR
        if kernel:
            value |= EVTSEL_OS
        if interrupt_on_overflow:
            value |= EVTSEL_INT
        if enable:
            value |= EVTSEL_EN
        self.wrmsr(_EVTSEL_MSRS[index], value)
        self.wrmsr(_PMC_MSRS[index], 0)

    def disable_counter(self, index: int) -> None:
        """Clear one programmable counter's event-select register."""
        if not 0 <= index < NUM_PROGRAMMABLE:
            raise PMUError(f"no programmable counter {index}")
        self.wrmsr(_EVTSEL_MSRS[index], 0)

    def load_assignment(self, assignment: "CounterAssignment", *,
                        user: bool = True, kernel: bool = False) -> None:
        """Load a :func:`~repro.hw.schedule.assign_counters` placement.

        Programs (and zeroes) every assigned programmable counter and
        clears the event select of every other one, so no event left by
        an earlier placement keeps counting.  Fixed-pinned events need
        no programming: the fixed counters always count their event.
        """
        assigned = {slot: name for name, slot in assignment.programmable}
        for index in range(NUM_PROGRAMMABLE):
            name = assigned.get(index)
            if name is None:
                self.disable_counter(index)
            else:
                self.program_counter(index, name, user=user, kernel=kernel)

    def enable_fixed(self, *, user: bool = True, kernel: bool = False) -> None:
        """Enable all three fixed counters with the given privilege mask."""
        field = (0b10 if user else 0) | (0b01 if kernel else 0)
        ctrl = 0
        for index in range(NUM_FIXED):
            ctrl |= field << (4 * index)
        self.wrmsr(MSR.IA32_FIXED_CTR_CTRL, ctrl)

    def global_enable(self, *, programmable: bool = True, fixed: bool = True) -> None:
        """Set IA32_PERF_GLOBAL_CTRL enable bits."""
        value = 0
        if programmable:
            value |= (1 << NUM_PROGRAMMABLE) - 1
        if fixed:
            value |= ((1 << NUM_FIXED) - 1) << 32
        self.wrmsr(MSR.IA32_PERF_GLOBAL_CTRL, value)

    def global_disable(self) -> None:
        """Clear IA32_PERF_GLOBAL_CTRL — freezes every counter."""
        self.wrmsr(MSR.IA32_PERF_GLOBAL_CTRL, 0)

    def write_counter(self, index: int, value: int) -> None:
        """Set one programmable counter's value directly.

        Drivers use this to seed a counter near the 48-bit ceiling
        (sampling-by-overflow setups, fault injection exercising
        wraparound); the value wraps modulo 2^48 as a WRMSR would.
        """
        if not 0 <= index < NUM_PROGRAMMABLE:
            raise PMUError(f"no programmable counter {index}")
        self._pmc[index] = float(int(value) % _COUNTER_WRAP)
        self._drop_pending(index)

    def _drop_pending(self, index: int) -> None:
        """Cancel undelivered PMIs for a counter being rewritten.

        A software write re-arms the counter: any overflow the old
        value produced but has not yet been delivered belongs to the
        discarded count.  Without this purge, a wrap preload landing in
        a multiplexing group that is descheduled before the PMI drains
        would double-deliver the overflow when the group is re-armed.
        """
        if self._pending_overflow:
            self._pending_overflow = [
                pending for pending in self._pending_overflow
                if pending != index
            ]

    def read_counters(self, slots: Tuple[int, ...],
                      ) -> Tuple[List[int], List[int], int]:
        """One interrupt-handler read of the counters a sample needs.

        Returns ``(fixed, values, overflow)``: the three fixed counter
        values, the values of programmable counters ``slots`` (in that
        order), and the IA32_PERF_GLOBAL_STATUS overflow bits of those
        slots.  The status register is read once and the returned bits
        are cleared with at most one write (the RMW a driver does on
        GLOBAL_STATUS / OVF_CTRL), so the same wrap can never be
        accounted twice across rotations; status bits of other counters
        are left as they were.
        """
        pmc = self._pmc
        values: List[int] = []
        mask = 0
        for slot in slots:
            if not 0 <= slot < NUM_PROGRAMMABLE:
                raise PMUError(f"no programmable counter {slot}")
            values.append(int(pmc[slot]))
            mask |= 1 << slot
        fixed = self._fixed
        msrs = self.msrs
        status = msrs.read(_GLOBAL_STATUS)
        overflow = status & mask
        if overflow:
            msrs.write(_GLOBAL_STATUS, status & ~overflow)
        return ([int(fixed[0]), int(fixed[1]), int(fixed[2])], values,
                overflow)

    def reset_counters(self) -> None:
        """Zero all counter values (config registers untouched)."""
        self._pmc = [0.0] * NUM_PROGRAMMABLE
        self._fixed = [0.0] * NUM_FIXED

    # ------------------------------------------------------------------
    # Count delivery (called by the simulated core)
    # ------------------------------------------------------------------
    def _compile_plan(self) -> None:
        """Decode the control registers into per-privilege lookup plans.

        ``accumulate_epoch`` runs once per execution slice — hundreds of
        thousands of times per experiment — while the registers change
        only when a tool reprograms the PMU.  The plan maps event name
        directly to the counters that count it in each ring, so the hot
        path is a dict lookup plus float adds.  The plan is keyed on
        ``MsrFile.version`` and revalidated on any register write; a
        previously-seen control-register signature (global enable
        toggles, multiplex group rotation) reinstalls its cached plan
        without re-deriving it.
        """
        msrs = self.msrs
        version = msrs.version
        global_ctrl = msrs.read(MSR.IA32_PERF_GLOBAL_CTRL)
        fixed_ctrl = msrs.read(MSR.IA32_FIXED_CTR_CTRL)
        evtsels = tuple(msrs.read(msr) for msr in _EVTSEL_MSRS)
        signature = (global_ctrl, fixed_ctrl) + evtsels
        cached = self._plan_cache.get(signature)
        if cached is not None:
            (self._plan_user, self._plan_kernel, self._counter_names,
             self._pmi_counters, self._counting,
             self._epoch_user, self._epoch_kernel) = cached
            self._plan_version = version
            return
        plan_user: Dict[str, List[Tuple[bool, int]]] = {}
        plan_kernel: Dict[str, List[Tuple[bool, int]]] = {}

        for index, event_name in enumerate(ev.FIXED_EVENTS):
            if not global_ctrl & (1 << (32 + index)):
                continue
            field = (fixed_ctrl >> (4 * index)) & 0b11
            if field & 0b10:
                plan_user.setdefault(event_name, []).append((True, index))
            if field & 0b01:
                plan_kernel.setdefault(event_name, []).append((True, index))

        names: List[Optional[str]] = []
        pmi: List[int] = []
        for index in range(NUM_PROGRAMMABLE):
            evtsel = evtsels[index]
            name: Optional[str] = None
            if evtsel & EVTSEL_EN:
                code = evtsel & (EVTSEL_EVENT_MASK | EVTSEL_UMASK_MASK)
                try:
                    name = ev.lookup_code(code).name
                except PMUError:
                    name = None  # unknown code: counter counts nothing
            names.append(name)
            if name is None or not global_ctrl & (1 << index):
                continue
            if evtsel & EVTSEL_INT:
                pmi.append(index)
            if evtsel & EVTSEL_USR:
                plan_user.setdefault(name, []).append((False, index))
            if evtsel & EVTSEL_OS:
                plan_kernel.setdefault(name, []).append((False, index))

        self._plan_user = plan_user
        self._plan_kernel = plan_kernel
        self._counter_names = tuple(names)
        self._pmi_counters = frozenset(pmi)
        self._counting = global_ctrl != 0
        self._epoch_user = {}
        self._epoch_kernel = {}
        self._plan_version = version
        self._plan_cache[signature] = (plan_user, plan_kernel,
                                       self._counter_names,
                                       self._pmi_counters, self._counting,
                                       self._epoch_user, self._epoch_kernel)

    def accumulate(self, counts: Mapping[str, float], privilege: str) -> None:
        """Add event occurrences observed during an execution slice.

        Args:
            counts: event name -> (possibly fractional) occurrence count.
            privilege: ``"user"`` or ``"kernel"`` — which ring the slice
                executed in; counters whose privilege mask excludes the
                ring ignore the contribution.

        The dict entry point into :meth:`accumulate_epoch`, for tests
        and micro-benchmarks; the simulator charges epochs directly.
        The key tuple is the epoch's name tuple, so each distinct dict
        shape compiles its apply list once per control-register
        signature.
        """
        self.accumulate_epoch(tuple(counts), tuple(counts.values()),
                              privilege)

    def accumulate_epoch(self, names: Tuple[str, ...], values,
                         privilege: str) -> None:
        """Add one execution epoch: ``values`` aligned with ``names``.

        ``names`` is a (stable, hashable) event-name tuple, compiled
        once per control-register signature into a flat apply list
        ``[(value index, is_fixed, counter index)]`` — cached on the
        plan-cache entry, so multiplex rotation and enable toggles
        reinstall it — and the hot path is a single list walk with
        float adds.  Zero and negative amounts are skipped.

        Bit-identical to walking the registers per call: each counter is
        programmed with exactly one event, so it receives at most one
        add per call, and the deferred overflow sweep visits counters in
        the same canonical order (fixed 32..34, programmable 0..3) the
        register walk did.
        """
        if privilege == "user":
            plan = self._plan_user
            epochs = self._epoch_user
        elif privilege == "kernel":
            plan = self._plan_kernel
            epochs = self._epoch_kernel
        else:
            raise PMUError(f"invalid privilege {privilege!r}")
        if self._plan_version != self.msrs.version:
            self._compile_plan()
            if privilege == "user":
                plan, epochs = self._plan_user, self._epoch_user
            else:
                plan, epochs = self._plan_kernel, self._epoch_kernel
        if not self._counting:
            return
        apply_list = epochs.get(names)
        if apply_list is None:
            apply_list = [
                (value_index, is_fixed, index)
                for value_index, name in enumerate(names)
                for is_fixed, index in plan.get(name, ())
            ]
            epochs[names] = apply_list

        fixed = self._fixed
        pmc = self._pmc
        wrapped = False
        for value_index, is_fixed, index in apply_list:
            amount = values[value_index]
            if amount <= 0.0:
                continue
            if is_fixed:
                value = fixed[index] + amount
                fixed[index] = value
            else:
                value = pmc[index] + amount
                pmc[index] = value
            if value >= _COUNTER_WRAP:
                wrapped = True
        if wrapped:
            self._sweep_overflow()
        if self._pending_overflow and self._overflow_handler is not None:
            pending, self._pending_overflow = self._pending_overflow, []
            # PMI delivery happens at slice granularity — the analogue of
            # real PMU interrupt skid.
            self._overflow_handler(pending)

    def _sweep_overflow(self) -> None:
        """Wrap any counter that crossed 2^48 and latch status bits."""
        overflowed: List[int] = []
        fixed = self._fixed
        for index in range(NUM_FIXED):
            if fixed[index] >= _COUNTER_WRAP:
                fixed[index] %= _COUNTER_WRAP
                overflowed.append(32 + index)
        pmc = self._pmc
        for index in range(NUM_PROGRAMMABLE):
            value = pmc[index]
            if value >= _COUNTER_WRAP:
                wraps = int(value // _COUNTER_WRAP)
                pmc[index] = value % _COUNTER_WRAP
                overflowed.append(index)
                if index in self._pmi_counters:
                    # One PMI per wrap: a coarse execution slice may
                    # cross several sampling periods at once; the
                    # interrupts coalesce in delivery time (skid) but
                    # not in count, keeping period-based estimates true.
                    self._pending_overflow.extend([index] * wraps)
        if overflowed:
            status = self.msrs.read(MSR.IA32_PERF_GLOBAL_STATUS)
            for bit in overflowed:
                status |= 1 << bit
            self.msrs.write(MSR.IA32_PERF_GLOBAL_STATUS, status)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def counter_event(self, index: int) -> Optional[str]:
        """Event name currently programmed on programmable counter ``index``."""
        if self._plan_version != self.msrs.version:
            self._compile_plan()
        if not 0 <= index < NUM_PROGRAMMABLE:
            raise IndexError(f"no programmable counter {index}")
        return self._counter_names[index]

    def snapshot(self, timestamp: int) -> CounterSnapshot:
        """Read every counter at once (what a sampling interrupt does)."""
        by_event: Dict[str, int] = {}
        for index, event_name in enumerate(ev.FIXED_EVENTS):
            by_event[event_name] = int(self._fixed[index])
        for index in range(NUM_PROGRAMMABLE):
            name = self.counter_event(index)
            if name is not None:
                by_event[name] = int(self._pmc[index])
        return CounterSnapshot(
            timestamp=timestamp,
            fixed=tuple(int(value) for value in self._fixed),
            programmable=tuple(int(value) for value in self._pmc),
            by_event=by_event,
        )

    def counter_row(self) -> Tuple[Tuple[str, ...], List[int]]:
        """Read every counter as a fixed-order row (columnar hot path).

        Returns ``(names, values)`` where ``names`` matches the key
        order of :meth:`snapshot`'s ``by_event`` dict for the current
        programmed layout and ``values`` the floored integer counter
        values — including dict semantics for a degenerate layout that
        programs one event on two counters (first occurrence fixes the
        position, the last counter supplies the value).  The name tuple
        is stable across calls while programming is unchanged, so
        callers can key a columnar ring schema on it.
        """
        if self._plan_version != self.msrs.version:
            self._compile_plan()
        row_plan = self._row_plans.get(self._counter_names)
        if row_plan is None:
            positions: Dict[str, int] = {}
            names: List[str] = []
            sources: List[Tuple[bool, int]] = []
            for index, event_name in enumerate(ev.FIXED_EVENTS):
                positions[event_name] = len(names)
                names.append(event_name)
                sources.append((True, index))
            for index, name in enumerate(self._counter_names):
                if name is None:
                    continue
                at = positions.get(name)
                if at is None:
                    positions[name] = len(names)
                    names.append(name)
                    sources.append((False, index))
                else:
                    sources[at] = (False, index)
            row_plan = (tuple(names), sources)
            self._row_plans[self._counter_names] = row_plan
        row_names, row_sources = row_plan
        fixed = self._fixed
        pmc = self._pmc
        return row_names, [
            int(fixed[index]) if is_fixed else int(pmc[index])
            for is_fixed, index in row_sources
        ]
