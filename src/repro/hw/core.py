"""Simulated CPU core.

The core turns workload blocks into elapsed time and PMU event counts:

* :class:`~repro.workloads.base.RateBlock` — instructions convert to
  cycles via the block's CPI; events accrue at the block's
  per-instruction rates.
* :class:`~repro.workloads.base.TraceBlock` — each memory operation is
  replayed through the cache hierarchy; its latency is charged and its
  cache events (LLC references/misses, ...) are recorded.  Each
  simulated operation folds in ``event_scale`` real memory instructions
  with spatial locality (the folded accesses hit L1 and cost ``cpi``).
* :class:`~repro.workloads.base.SyscallBlock` — execution stops and the
  block is handed back so the kernel can service the trap.

Execution is *sliced*: the kernel bounds each call by the time of the
next simulation event (timer fire, quantum expiry), and the cursor
resumes mid-block after preemption.
"""

from __future__ import annotations

import enum
import weakref
from bisect import bisect_left
from collections import OrderedDict, defaultdict
from itertools import chain, repeat
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as _np

from repro.errors import SimulationError
from repro.hw.cache import FLUSHED, CacheHierarchy
from repro.hw.pmu import Pmu
from repro.workloads.base import (
    KIND_CODES,
    BlockCursor,
    OpKind,
    RateBlock,
    SyscallBlock,
    Trace,
    TraceBlock,
)

_FLUSH_LATENCY_CYCLES = 40
_EPSILON_NS = 1e-6

# Epoch-accumulation columns of both trace replay paths.  An event a
# slice did not produce carries a zero, which the PMU skips.
_EPOCH_EVENTS = (
    "INST_RETIRED", "CORE_CYCLES", "REF_CYCLES",
    "LOADS", "STORES", "CACHE_FLUSHES",
    "L1D_MISSES", "L2_MISSES", "LLC_REFERENCES", "LLC_MISSES",
)

# Traces shorter than this replay faster through the scalar loop than
# through a plan lookup; the batch planner only kicks in above it.
_BATCH_MIN_OPS = 64

# Plan category of a flush op (categories: 0 probe, 1 MRU repeat,
# 2 flush, 3 guaranteed miss).
_CAT_FLUSH = 2
_KIND_CODE_STORE = KIND_CODES[OpKind.STORE]
_KIND_CODE_FLUSH = KIND_CODES[OpKind.FLUSH]


class _TracePlan:
    """Precompiled replay plan for one (trace, cache geometry) pair.

    Per-op Python lists (segment ends, per-level set indices and tags,
    prefix store/flush counts) plus the collapsed flush-run wipes, all
    integers derived from op addresses and the level shift/mask
    geometry — never references into a live hierarchy — so one plan
    serves every cache instance with the same geometry (each trial
    builds a fresh hierarchy).  Plans live on their trace
    (``Trace.plans``), so a plan is freed with its trace.

    ``period`` is the trace's round length when the trace is a tile of
    a *flush-first* round, else 0.  Such a plan carries the round's
    *profile*, the same from any starting cache state (see
    :meth:`Core._run_trace_batch`): ``round_levels``, each op's hit
    level (``FLUSHED`` for a flush, else the level index, 3 for
    memory), and ``round_prefix``, five prefix-sum columns over the
    round's ops (flushes, l1 hits, l2 hits, l3 hits, l3 misses), each
    ``period + 1`` long.  ``round_counts`` is their last row, one whole
    round's counts.  ``cycle_prefixes`` caches the round's cycle prefix
    per cost tuple (:func:`_round_cycle_prefix`).  All four are None
    when ``period`` is 0.
    """

    __slots__ = (
        "kindcat", "seg_end", "flush_start", "flush_collapsed",
        "se1", "tg1", "se2", "tg2", "se3", "tg3",
        "pre_store", "pre_flush", "guard_min", "period",
        "round_levels", "round_prefix", "round_counts", "cycle_prefixes",
        "__weakref__",
    )


def _shared_runs(values: _np.ndarray) -> list:
    """``values.tolist()``, with one int object per run of equal values.

    ``tolist`` boxes every element separately; replay only reads these
    lists, so sharing one object along each run keeps a long run of a
    value above the small-int cache as cheap as a single int.
    """
    bounds = _np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = _np.concatenate(([0], bounds))
    lengths = _np.diff(_np.concatenate((starts, [len(values)])))
    return list(chain.from_iterable(
        map(repeat, values[starts].tolist(), lengths.tolist())))


def _trace_plan(trace: Trace, descriptors: tuple) -> _TracePlan:
    """Build (or fetch) the batch replay plan of a non-empty ``trace``
    for the cache geometry in ``descriptors``."""
    _d1, _d2, _d3 = descriptors
    s1, m1, t1 = _d1[1], _d1[2], _d1[3]
    s2, m2, t2 = _d2[1], _d2[2], _d2[3]
    s3, m3, t3 = _d3[1], _d3[2], _d3[3]
    # Ways are in the key because a plan's round counts depend on them.
    key = (s1, m1, t1, _d1[5], s2, m2, t2, _d2[5], s3, m3, t3, _d3[5])
    plan = trace.plans.get(key)
    if plan is not None:
        return plan
    addresses = trace.addresses
    n = len(addresses)
    flushes = trace.kinds == _KIND_CODE_FLUSH
    stores = trace.kinds == _KIND_CODE_STORE
    accesses = ~flushes

    line1 = addresses >> s1
    line2 = addresses >> s2
    line3 = addresses >> s3
    # MRU mask: an access whose predecessor is an access to the same L1
    # line is a guaranteed hit (the line is most-recently-used and the
    # shortcut mutates nothing).  The first op of each execution slice
    # is forced down the probe path at replay time, mirroring the
    # scalar loop's per-slice ``last_line = -1`` reset.
    mru = _np.zeros(n, dtype=bool)
    if n > 1:
        mru[1:] = (line1[1:] == line1[:-1]) & accesses[:-1]
    kindcat = _np.where(flushes, _CAT_FLUSH,
                        _np.where(mru, 1, 0)).astype(_np.int8)

    # Guaranteed-miss analysis (Flush+Reload's reload pass): an access
    # whose most recent same-line predecessor *within this trace* is a
    # flush must miss every level — provided the flush executed in the
    # same slice, because nothing else can run (and so nothing can
    # re-insert the line) between two ops of one replay call.  guard[i]
    # records that flush's op index (-1 when the guarantee cannot be
    # made statically); replay checks guard >= slice start at run time.
    # Only valid when every level shares one line size, so "same line"
    # means the same bytes at every level.  A stable sort by line puts
    # each op right after its previous same-line op.  Such an access is
    # never an MRU repeat (its predecessor would be that same-line op),
    # so it is a probe and becomes category 3.
    guard = _np.full(n, -1, dtype=_np.int64)
    if s1 == s2 == s3 and n > 1:
        order = _np.argsort(line1, kind="stable")
        previous, current = order[:-1], order[1:]
        guarded = ((line1[current] == line1[previous])
                   & flushes[previous] & accesses[current])
        guard[current[guarded]] = previous[guarded]
        kindcat[current[guarded]] = 3

    # Runs of one category.  Replay consumes flush/MRU/guaranteed-miss
    # runs in O(1) and walks probe runs in one tight inner loop.
    bounds = _np.flatnonzero(kindcat[1:] != kindcat[:-1]) + 1
    run_starts = _np.concatenate(([0], bounds))
    run_ends = _np.concatenate((bounds, [n]))
    run_lengths = run_ends - run_starts
    run_cats = kindcat[run_starts]
    # Suffix-min of guard over each run: the whole remainder of a
    # guaranteed-miss run is provably absent iff every member's flush
    # happened at or after the slice start.  (Outside category 3 every
    # guard is -1.)  Reversed, a suffix-min is a running min; offsetting
    # each run above every run after it in the reversed order keeps the
    # running min from carrying across run boundaries.
    guard_min = guard
    if (run_cats == 3).any():
        span = n + 1
        offsets = _np.repeat(
            _np.arange(len(run_starts), dtype=_np.int64) * span,
            run_lengths)
        shifted = (guard + 1 + offsets)[::-1]
        guard_min = (_np.minimum.accumulate(shifted)[::-1]
                     - offsets - 1)

    plan = _TracePlan()
    plan.kindcat = kindcat.tolist()
    plan.se1 = (line1 & m1).tolist()
    plan.tg1 = (line1 >> t1).tolist()
    plan.se2 = (line2 & m2).tolist()
    plan.tg2 = (line2 >> t2).tolist()
    plan.se3 = (line3 & m3).tolist()
    plan.tg3 = (line3 >> t3).tolist()
    prefix = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(stores, out=prefix[1:])
    plan.pre_store = _shared_runs(prefix)
    _np.cumsum(flushes, out=prefix[1:])
    plan.pre_flush = _shared_runs(prefix)
    plan.seg_end = _shared_runs(_np.repeat(run_ends, run_lengths))
    plan.guard_min = _shared_runs(guard_min)
    is_flush_run = run_cats == _CAT_FLUSH
    plan.flush_start = _shared_runs(_np.repeat(
        _np.where(is_flush_run, run_starts, 0), run_lengths))
    # Per maximal flush run: the collapsed per-level wipe list
    # [(set index, {tags})].  A flush is a presence-independent pop, so
    # a whole run applies as one set-intersection removal per touched
    # set instead of three dict pops per op.
    collapsed = {}
    se_tg = ((plan.se1, plan.tg1), (plan.se2, plan.tg2),
             (plan.se3, plan.tg3))
    for run, end in zip(run_starts[is_flush_run].tolist(),
                        run_ends[is_flush_run].tolist()):
        levels = []
        for se, tg in se_tg:
            wipes: Dict[int, set] = defaultdict(set)
            for set_index, tag in zip(se[run:end], tg[run:end]):
                wipes[set_index].add(tag)
            levels.append(list(wipes.items()))
        collapsed[run] = levels
    plan.flush_collapsed = collapsed

    # A tile's round is *flush-first* when every flush comes before its
    # first access and, at every level's line size, each line it
    # accesses is one it flushed.  (Python sets: ``np.isin`` costs more
    # memory than the whole check is worth.)
    period = trace.period
    plan.period = 0
    plan.round_levels = plan.round_prefix = None
    plan.round_counts = plan.cycle_prefixes = None
    if period:
        round_flushes = flushes[:period]
        first_access = (int(_np.argmin(round_flushes))
                        if not round_flushes.all() else period)
        if not round_flushes[first_access:].any() and all(
                set(line[first_access:period].tolist())
                <= set(line[:first_access].tolist())
                for line in (line1, line2, line3)):
            plan.period = period
            _round_profile(plan, (_d1[5], _d2[5], _d3[5]))

    trace.plans[key] = plan
    return plan


def _round_profile(plan: _TracePlan, ways: tuple) -> None:
    """Fill the round profile of a flush-first ``plan``: replay its
    first round on scratch sets (only those the round touches) that
    start empty, recording each op's hit level and the prefix counts."""
    columns = ((plan.se1, plan.tg1), (plan.se2, plan.tg2),
               (plan.se3, plan.tg3))
    scratch = ({}, {}, {})
    hit_levels = []
    row = [0, 0, 0, 0, 0]
    rows = [tuple(row)]
    for op in range(plan.period):
        if plan.kindcat[op] == _CAT_FLUSH:
            for (se, tg), sets in zip(columns, scratch):
                sets.get(se[op], {}).pop(tg[op], None)
            hit = FLUSHED
            row[0] += 1
        else:
            hit = 3
            for index, (se, tg) in enumerate(columns):
                entries = scratch[index].setdefault(se[op], OrderedDict())
                if tg[op] in entries:
                    entries.move_to_end(tg[op])
                    hit = index
                    break
            for index in range(hit):
                se, tg = columns[index]
                entries = scratch[index][se[op]]
                if len(entries) >= ways[index]:
                    entries.popitem(last=False)
                entries[tg[op]] = True
            row[1 + hit] += 1
        hit_levels.append(hit)
        rows.append(tuple(row))
    plan.round_levels = hit_levels
    plan.round_prefix = tuple(map(list, zip(*rows)))
    plan.round_counts = rows[-1]
    plan.cycle_prefixes = {}


def _round_cycle_prefix(plan: _TracePlan, costs: tuple) -> list:
    """Cycles before each op of ``plan``'s round (``period + 1``
    entries), for ``costs`` = the cycles of a flush, an L1, L2 and L3
    hit and a memory access; cached on the plan, because one plan
    serves blocks of different ``cpi`` or ``instructions_per_op``."""
    prefix = plan.cycle_prefixes.get(costs)
    if prefix is None:
        prefix = plan.cycle_prefixes[costs] = [
            sum(count * cost for count, cost in zip(row, costs))
            for row in zip(*plan.round_prefix)]
    return prefix


def _round_cut(cycle_prefix: list, first: int, period: int, base: int,
               budget: float) -> int:
    """The first op ``j >= first`` of a round that a slice at ``base +
    cycle_prefix[first]`` cycles does not run, or ``period``.

    The scalar loop runs an op iff the cycles before it are under
    budget, so op ``j`` runs iff ``base + cycle_prefix[j] < budget``;
    the bisection's float threshold is corrected to that exact test.
    """
    cut = bisect_left(cycle_prefix, budget - base, first, period)
    while cut > first and base + cycle_prefix[cut - 1] >= budget:
        cut -= 1
    while cut < period and base + cycle_prefix[cut] < budget:
        cut += 1
    return cut


class ExecStop(enum.Enum):
    """Why :meth:`Core.execute` returned."""

    BUDGET = "budget"              # time slice exhausted
    PROGRAM_DONE = "program-done"  # block stream exhausted
    SYSCALL = "syscall"            # program trapped into the kernel


@dataclass
class ExecResult:
    """Outcome of one execution slice."""

    consumed_ns: int
    instructions: float
    stop: ExecStop
    syscall: Optional[SyscallBlock] = None


class Core:
    """One CPU core: executes block streams against a PMU and caches."""

    def __init__(self, frequency_hz: float, pmu: Pmu, cache: CacheHierarchy,
                 tsc_ratio: float = 1.0) -> None:
        if frequency_hz <= 0:
            raise SimulationError("core frequency must be positive")
        self.frequency_hz = frequency_hz
        self.pmu = pmu
        self.cache = cache
        self.tsc_ratio = tsc_ratio
        self._ns_per_cycle = 1e9 / frequency_hz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self._ns_per_cycle

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self._ns_per_cycle

    def execute(self, cursor: BlockCursor, budget_ns: int) -> ExecResult:
        """Run the program at ``cursor`` for at most ``budget_ns``.

        A trace operation whose latency straddles the budget boundary is
        completed (slight overshoot), mirroring how a real CPU cannot
        abandon an in-flight memory access; callers advance the clock by
        the *actual* consumed time.
        """
        if budget_ns < 0:
            raise SimulationError(f"negative execution budget {budget_ns}")
        consumed = 0.0
        instructions = 0.0
        while consumed < budget_ns - _EPSILON_NS:
            block = cursor.peek()
            if block is None:
                return ExecResult(int(round(consumed)), instructions,
                                  ExecStop.PROGRAM_DONE)
            if isinstance(block, SyscallBlock):
                cursor.advance()
                return ExecResult(int(round(consumed)), instructions,
                                  ExecStop.SYSCALL, syscall=block)
            if isinstance(block, RateBlock):
                step_ns, step_instr = self._run_rate(
                    cursor, block, budget_ns - consumed
                )
            elif isinstance(block, TraceBlock):
                step_ns, step_instr = self._run_trace(
                    cursor, block, budget_ns - consumed
                )
            else:  # pragma: no cover - the Block union is closed
                raise SimulationError(f"unknown block type {type(block).__name__}")
            consumed += step_ns
            instructions += step_instr
            if step_ns <= 0 and step_instr <= 0:
                # Zero-width block (e.g. empty trace); skip it.
                cursor.advance()
        return ExecResult(int(round(consumed)), instructions, ExecStop.BUDGET)

    # ------------------------------------------------------------------
    def _run_rate(self, cursor: BlockCursor, block: RateBlock,
                  budget_ns: float) -> tuple:
        cycles_available = self.ns_to_cycles(budget_ns)
        instr_possible = cycles_available / block.cpi
        take = min(block.instructions, instr_possible)
        if take <= 0:
            cursor.consume_instructions(block.instructions)
            return 0.0, 0.0
        cycles = take * block.cpi
        values = [rate * take for rate in block.rates.values()]
        values += (take, cycles, cycles * self.tsc_ratio)
        self.pmu.accumulate_epoch(block.event_names, values, block.privilege)
        cursor.consume_instructions(take)
        return self.cycles_to_ns(cycles), take

    def _run_trace(self, cursor: BlockCursor, block: TraceBlock,
                   budget_ns: float) -> tuple:
        cache = self.cache
        if cache.cold:
            cache.warm()
        if (cache._num_levels == 3 and not cache.prefetch_next_line
                and len(block.ops) >= _BATCH_MIN_OPS):
            # The batch path accumulates cycles/instructions in Python
            # ints, which reproduces the scalar float sums bit-for-bit
            # only when every per-op increment is integral (sums of
            # integers below 2^53 are exact and order-independent).
            # Fractional increments — and fractional latencies — take
            # the scalar reference.
            event_scale = float(block.event_scale)
            folded = float(block.instructions_per_op
                           + block.event_scale - 1.0)
            folded_cycles = folded * block.cpi
            if (event_scale.is_integer() and folded.is_integer()
                    and folded_cycles.is_integer()
                    and self._integer_latencies()):
                plan = _trace_plan(block.ops, cache._descriptors)
                return self._run_trace_batch(cursor, block, budget_ns, plan)
        return self._run_trace_generic(cursor, block, budget_ns)

    def _integer_latencies(self) -> bool:
        d1, d2, d3 = self.cache._descriptors
        return (type(d1[0].config.hit_latency_cycles) is int
                and type(d2[0].config.hit_latency_cycles) is int
                and type(d3[0].config.hit_latency_cycles) is int
                and type(self.cache.memory_latency_cycles) is int)

    def _run_trace_batch(self, cursor: BlockCursor, block: TraceBlock,
                         budget_ns: float, plan: _TracePlan) -> tuple:
        """Segment-batched trace replay (the columnar core's hot path).

        Replays the slice as precompiled *segments* instead of ops:
        maximal flush runs apply as one set-intersection wipe per
        touched cache set, maximal same-line (MRU) runs retire in O(1)
        with an exact closed-form budget cut, and the remaining probe
        ops read their set indices and tags from the plan's precomputed
        columns instead of re-deriving them from the address.  All
        statistics accumulate in flat integers flushed once per slice,
        and the PMU receives one epoch-accumulation call.  Bit-identical
        to :meth:`_run_trace_generic` under the seam's integrality guard:
        every cache mutation happens with the same semantics (deletion
        order within a flush run cannot affect dict state; MRU shortcuts
        mutate nothing), and all counter sums are exact integer
        arithmetic below 2^53.

        Consecutive slices of one plan form a *chain*: a slice that
        starts where the hierarchy's last batch slice (``cache.chain``)
        stopped, of the same plan, with every level's ``version``
        unchanged since, continues that slice's chain, so the ops from
        ``chain_start`` on ran back to back on exactly this cache state.
        A guaranteed miss then only needs its flush at or after the
        chain start, and a resumed MRU run stays MRU.

        A tile of a flush-first round (``plan.period``) counts a round
        instead of replaying it when the round before it ran inside the
        chain.  A round flushes every line it accesses before its first
        access, so which level each of its ops hits is the same from any
        starting state (lines older than the round are evicted before
        any line it inserted): the plan's round profile holds those hit
        levels and their prefix counts.  And a round replayed on the
        state the same round left behind evicts nothing older and leaves
        that state exactly as it was, LRU order included.  So at such a
        boundary, whole rounds add the profile's last row while their
        last op starts under budget, and op ``j`` of the round after
        them runs iff ``cycles + C[j] < budget``, where ``C`` is the
        round's cycle prefix for this block's costs; a bisection finds
        the cut.  On a hierarchy that shares no level, the partial
        round's prefix is counted but not written: the sets stay at the
        boundary state and ``cache.deferred`` records the prefix.  A
        slice that continues the chain takes the rest of the round from
        the profile (the sets are then the boundary state again) or
        extends the prefix; anything else that reads or writes the sets
        applies the prefix's writes first (:meth:`CacheHierarchy.settle`).
        A shared L3 replays the partial round op by op.
        """
        budget_cycles = self.ns_to_cycles(budget_ns)
        event_scale = int(block.event_scale)
        # Per-op retired instructions: flush and access ops both retire
        # instructions_per_op + event_scale (the flush itself or the
        # probing access plus the folded line-local accesses).
        op_instructions = int(block.instructions_per_op + block.event_scale)
        folded_cycles = int((block.instructions_per_op
                             + block.event_scale - 1.0) * block.cpi)
        cache = self.cache
        d1, d2, d3 = cache._descriptors
        level1, _s1, _m1, _t1, sets1, w1, _n1 = d1
        level2, _s2, _m2, _t2, sets2, w2, _n2 = d2
        level3, _s3, _m3, _t3, sets3, w3, _n3 = d3
        lat1 = level1.config.hit_latency_cycles
        lat2 = level2.config.hit_latency_cycles
        lat3 = level3.config.hit_latency_cycles
        lat_mem = cache.memory_latency_cycles
        cost_mru = folded_cycles + lat1
        cost_flush = folded_cycles + _FLUSH_LATENCY_CYCLES
        cost_miss = folded_cycles + lat_mem

        kindcat = plan.kindcat
        seg_end = plan.seg_end
        guard_min = plan.guard_min
        flush_start = plan.flush_start
        se1, tg1 = plan.se1, plan.tg1
        se2, tg2 = plan.se2, plan.tg2
        se3, tg3 = plan.se3, plan.tg3
        pre_flush = plan.pre_flush
        period = plan.period
        if period:
            pre_l1, pre_l2, pre_l3, pre_mem = plan.round_prefix[1:]
            l1h_r, l2h_r, l3h_r, l3m_r = plan.round_counts[1:]
            cycle_prefix = _round_cycle_prefix(plan, (
                cost_flush, cost_mru, folded_cycles + lat2,
                folded_cycles + lat3, cost_miss))
            # A whole round runs iff its last op starts under budget.
            last_op = cycle_prefix[period - 1]
            round_cycles = cycle_prefix[period]
        # Only a hierarchy whose L3 no other hierarchy holds defers.
        defers = period and not level3.shared
        # Ops of the round at p - deferred that this slice counted but
        # did not write to the sets (see CacheHierarchy.settle).
        deferred = 0

        cycles = 0
        l1h = l1m = l2h = l2m = l3h = l3m = 0
        start = cursor.op_index
        chain = cache.chain
        if (chain is not None and chain[1] == start and chain[0]() is plan
                and chain[3] == level1.version and chain[4] == level2.version
                and chain[5] == level3.version):
            chain_start = chain[2]
        else:
            chain_start = start
            cache.settle()
        # Still set only when this slice continues its chain.
        resumed = cache.deferred
        p = start
        if resumed is not None:
            # The sets hold the state at the round boundary start -
            # offset: finish the round from the profile, or go on
            # deferring if the budget ends inside it again.
            offset = resumed[2]
            cut = _round_cut(cycle_prefix, offset, period,
                             -cycle_prefix[offset], budget_cycles)
            cycles = cycle_prefix[cut] - cycle_prefix[offset]
            l1h = pre_l1[cut] - pre_l1[offset]
            l2h = pre_l2[cut] - pre_l2[offset]
            l3h = pre_l3[cut] - pre_l3[offset]
            l3m = pre_mem[cut] - pre_mem[offset]
            l1m = l2h + l3h + l3m
            l2m = l3h + l3m
            p = start - offset + cut
            if cut < period:
                deferred = cut
        total = len(kindcat)
        while p < total and cycles < budget_cycles:
            cat = kindcat[p]
            if cat == 1 and p == chain_start:
                # Resuming mid-run on a cache something else may have
                # touched: probe exactly as the scalar loop (which
                # resets last_line per slice) would.  The line is still
                # MRU, so the probe's move_to_end is order-neutral.
                cat = 0
            elif cat == 3:
                # Only ops whose covering flush executed inside the
                # chain are provably absent; older guards mean another
                # program may have re-filled the line since, so those
                # ops take the full probe.
                if guard_min[p] < chain_start:
                    cat = 0
            if cat == 3:
                # Guaranteed-miss run: every op misses L1/L2/L3 and
                # fills inward from memory, so the membership probes
                # are skipped and only the scalar path's mutations
                # (evict-if-full + insert per level) are applied.
                end = seg_end[p]
                length = end - p
                n = int((budget_cycles - cycles) // cost_miss) + 1
                if n > length:
                    n = length
                while n > 0 and cycles + (n - 1) * cost_miss >= budget_cycles:
                    n -= 1
                while n < length and cycles + n * cost_miss < budget_cycles:
                    n += 1
                stop = p + n
                for si3, ti3, si2, ti2, si1, ti1 in zip(
                        se3[p:stop], tg3[p:stop], se2[p:stop], tg2[p:stop],
                        se1[p:stop], tg1[p:stop]):
                    entries3 = sets3[si3]
                    if len(entries3) >= w3:
                        entries3.popitem(last=False)
                    entries3[ti3] = True
                    entries2 = sets2[si2]
                    if len(entries2) >= w2:
                        entries2.popitem(last=False)
                    entries2[ti2] = True
                    entries1 = sets1[si1]
                    if len(entries1) >= w1:
                        entries1.popitem(last=False)
                    entries1[ti1] = True
                l1m += n
                l2m += n
                l3m += n
                cycles += n * cost_miss
                p += n
                continue
            if cat == 0:
                # Probe run: per-op budget checks stay (each op's cost
                # depends on the hit level), but segment dispatch is
                # hoisted out of the loop.  Demoted ops (a resumed MRU
                # or an unprovable guaranteed-miss) probe exactly one
                # op before re-entering the dispatcher.
                e = seg_end[p] if kindcat[p] == 0 else p + 1
                while True:
                    tag1 = tg1[p]
                    entries1 = sets1[se1[p]]
                    if tag1 in entries1:
                        entries1.move_to_end(tag1)
                        l1h += 1
                        cycles += cost_mru
                    else:
                        l1m += 1
                        tag2 = tg2[p]
                        entries2 = sets2[se2[p]]
                        if tag2 in entries2:
                            entries2.move_to_end(tag2)
                            l2h += 1
                            cycles += folded_cycles + lat2
                        else:
                            l2m += 1
                            tag3 = tg3[p]
                            entries3 = sets3[se3[p]]
                            if tag3 in entries3:
                                entries3.move_to_end(tag3)
                                l3h += 1
                                cycles += folded_cycles + lat3
                            else:
                                l3m += 1
                                cycles += folded_cycles + lat_mem
                                if len(entries3) >= w3:
                                    entries3.popitem(last=False)
                                entries3[tag3] = True
                            if len(entries2) >= w2:
                                entries2.popitem(last=False)
                            entries2[tag2] = True
                        if len(entries1) >= w1:
                            entries1.popitem(last=False)
                        entries1[tag1] = True
                    p += 1
                    if p >= e or cycles >= budget_cycles:
                        break
                continue
            if (cat == _CAT_FLUSH and period and p % period == 0
                    and p - period >= chain_start):
                # A round boundary whose previous round ran in the chain
                # (a flush-first round starts with a flush): add whole
                # rounds as counts, then the partial round's prefix.
                if cycles + last_op < budget_cycles:
                    rounds = 0
                    while True:
                        rounds += 1
                        cycles += round_cycles
                        p += period
                        if p >= total or cycles + last_op >= budget_cycles:
                            break
                    l1h += rounds * l1h_r
                    l1m += rounds * (l2h_r + l3h_r + l3m_r)
                    l2h += rounds * l2h_r
                    l2m += rounds * (l3h_r + l3m_r)
                    l3h += rounds * l3h_r
                    l3m += rounds * l3m_r
                if p >= total or cycles >= budget_cycles:
                    continue
                if defers:
                    cut = _round_cut(cycle_prefix, 0, period, cycles,
                                     budget_cycles)
                    cycles += cycle_prefix[cut]
                    l1h += pre_l1[cut]
                    l1m += pre_l2[cut] + pre_l3[cut] + pre_mem[cut]
                    l2h += pre_l2[cut]
                    l2m += pre_l3[cut] + pre_mem[cut]
                    l3h += pre_l3[cut]
                    l3m += pre_mem[cut]
                    p += cut
                    deferred = cut
                    continue
                # A shared L3 replays the partial round op by op.
            # Run segment: take as many ops as the budget admits.  The
            # scalar loop checks ``cycles < budget`` *before* each op,
            # so op k of the run executes iff cycles + k*cost is under
            # budget; the float estimate is corrected to that exact
            # integer condition.
            end = seg_end[p]
            length = end - p
            cost = cost_mru if cat == 1 else cost_flush
            if cost <= 0:
                n = length
            else:
                n = int((budget_cycles - cycles) // cost) + 1
                if n > length:
                    n = length
                while n > 0 and cycles + (n - 1) * cost >= budget_cycles:
                    n -= 1
                while n < length and cycles + n * cost < budget_cycles:
                    n += 1
            if cat == 1:
                l1h += n
                cycles += n * cost_mru
            else:
                if n == length and p == flush_start[p]:
                    level_wipes = plan.flush_collapsed[p]
                    for sets, wipes in ((sets1, level_wipes[0]),
                                        (sets2, level_wipes[1]),
                                        (sets3, level_wipes[2])):
                        for set_index, tags in wipes:
                            entries = sets[set_index]
                            for tag in tags.intersection(entries):
                                del entries[tag]
                else:
                    for i in range(p, p + n):
                        sets1[se1[i]].pop(tg1[i], None)
                        sets2[se2[i]].pop(tg2[i], None)
                        sets3[se3[i]].pop(tg3[i], None)
                cycles += n * cost_flush
            p += n

        ops_done = p - start
        if not ops_done:
            return 0.0, 0.0
        level1.version += 1
        level2.version += 1
        level3.version += 1
        cache.chain = (weakref.ref(plan), p, chain_start, level1.version,
                       level2.version, level3.version)
        if deferred:
            cache.defer((((se1, tg1), (se2, tg2), (se3, tg3)),
                         plan.round_levels, deferred))
        elif resumed is not None:
            cache.defer(None)
        pre_store = plan.pre_store
        n_flush = pre_flush[p] - pre_flush[start]
        n_access = ops_done - n_flush
        n_store = pre_store[p] - pre_store[start]
        stores = n_store * event_scale
        loads = (n_access - n_store) * event_scale
        instructions = ops_done * op_instructions
        if n_flush:
            cache.stats.flushes += n_flush
        if n_access:
            stats = cache.stats
            stats.accesses += n_access
            level1.hits += l1h
            level1.misses += l1m
            level2.hits += l2h
            level2.misses += l2m
            level3.hits += l3h
            level3.misses += l3m
            hits = stats.hits
            hits[_n1] += l1h
            hits[_n2] += l2h
            hits[_n3] += l3h
            misses = stats.misses
            misses[_n1] += l1m
            misses[_n2] += l2m
            misses[_n3] += l3m
            misses["memory"] += l3m
        self.pmu.accumulate_epoch(
            _EPOCH_EVENTS,
            (float(instructions), float(cycles), cycles * self.tsc_ratio,
             float(loads), float(stores), float(n_flush),
             float(l1m), float(l2m), float(l2m), float(l3m)),
            block.privilege)
        cursor.consume_ops(ops_done)
        return self.cycles_to_ns(cycles), float(instructions)

    def _run_trace_generic(self, cursor: BlockCursor, block: TraceBlock,
                           budget_ns: float) -> tuple:
        budget_cycles = self.ns_to_cycles(budget_ns)
        folded_instructions = block.instructions_per_op + block.event_scale - 1.0
        folded_cycles = folded_instructions * block.cpi
        cache = self.cache
        clflush = cache.clflush
        access_fast = cache.access_fast
        # Latency per hit-level index; last entry is the memory access.
        latencies = [level.config.hit_latency_cycles for level in cache.levels]
        latencies.append(cache.memory_latency_cycles)
        llc_index = len(cache.levels) - 1
        memory_index = len(cache.levels)
        flush_kind = _KIND_CODE_FLUSH
        store_kind = _KIND_CODE_STORE
        event_scale = block.event_scale
        op_instructions = block.instructions_per_op + event_scale
        l1_latency = latencies[0]
        # Same-line run fast path: a load/store immediately following an
        # access to the same L1 line is a guaranteed L1 hit (the line is
        # MRU and nothing ran in between to evict it), so the full probe
        # is skipped and its bookkeeping applied directly.  A flush, or
        # a prefetching memory miss (whose next-line fill could in a
        # degenerate geometry evict the line), resets the run.
        level0 = cache.levels[0]
        l1_shift = level0._line_shift
        l1_name = level0.config.name
        stats = cache.stats
        stats_hits = stats.hits
        reset_on_miss = cache.prefetch_next_line
        last_line = -1

        cycles = 0.0
        loads = stores = flushes = 0.0
        l1_misses = l2_misses = llc_refs = llc_misses = 0.0
        instructions = 0.0
        start = cursor.op_index
        trace = block.ops
        total = len(trace)
        # Every op costs at least ``min_cost`` cycles, so the budget
        # admits at most ``window`` ops (two spare absorb float
        # rounding), and only those are unboxed from the columns.  A
        # slice that outlasts its window goes on with the next one.
        min_cost = folded_cycles + min(_FLUSH_LATENCY_CYCLES, *latencies)
        window = int(budget_cycles / min_cost) + 2 if min_cost > 0 else total
        position = start
        while position < total and cycles < budget_cycles:
            stop = min(total, position + window)
            for address, kind in zip(trace.addresses[position:stop].tolist(),
                                     trace.kinds[position:stop].tolist()):
                if cycles >= budget_cycles:
                    break
                cycles += folded_cycles
                if kind == flush_kind:
                    clflush(address)
                    cycles += _FLUSH_LATENCY_CYCLES
                    flushes += 1.0
                    instructions += folded_instructions + 1.0
                    last_line = -1
                else:
                    line = address >> l1_shift
                    if line == last_line:
                        level0.hits += 1
                        stats.accesses += 1
                        stats_hits[l1_name] += 1
                        hit_index = 0
                        cycles += l1_latency
                    else:
                        hit_index = access_fast(address)
                        cycles += latencies[hit_index]
                        if reset_on_miss and hit_index == memory_index:
                            last_line = -1
                        else:
                            last_line = line
                    # The folded accesses are additional memory instructions
                    # hitting L1 (spatial locality within the cached line).
                    if kind == store_kind:
                        stores += event_scale
                    else:
                        loads += event_scale
                    if hit_index >= 1:
                        l1_misses += 1.0
                        if hit_index >= 2:
                            l2_misses += 1.0
                    if hit_index >= llc_index:
                        llc_refs += 1.0
                        if hit_index == memory_index:
                            llc_misses += 1.0
                    instructions += op_instructions
                position += 1
        ops_done = position - start
        if ops_done:
            self.pmu.accumulate_epoch(
                _EPOCH_EVENTS,
                (instructions, cycles, cycles * self.tsc_ratio,
                 loads, stores, flushes,
                 l1_misses, l2_misses, llc_refs, llc_misses),
                block.privilege)
            cursor.consume_ops(ops_done)
        return self.cycles_to_ns(cycles), instructions
