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
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as _np

from repro.errors import SimulationError
from repro.hw.cache import CacheHierarchy
from repro.hw.pmu import Pmu
from repro.workloads.base import (
    BlockCursor,
    OpKind,
    RateBlock,
    SyscallBlock,
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

_KIND_LOAD, _KIND_STORE, _KIND_FLUSH = 0, 1, 2


class _TracePlan:
    """Precompiled replay plan for one (ops, cache geometry) pair.

    Per-op Python lists (segment ends, per-level set indices and tags,
    prefix store/flush counts) plus the collapsed flush-run wipes, all
    integers derived from op addresses and the level shift/mask
    geometry — never references into a live hierarchy — so one plan
    serves every cache instance with the same geometry (each trial
    builds a fresh hierarchy).  ``ops`` is retained so the ``id(ops)``
    cache key cannot be recycled while the plan lives, and so the cache
    can tell when nothing else holds the op list any more.
    """

    __slots__ = (
        "ops", "kindcat", "seg_end", "flush_start", "flush_collapsed",
        "se1", "tg1", "se2", "tg2", "se3", "tg3",
        "pre_store", "pre_flush", "guard_min",
    )


# (id(ops), geometry) -> _TracePlan.  Keyed on object identity:
# workload generators memoize their op tuples, so the common case is a
# handful of long-lived tuples replayed across every trial.  A plan
# lives exactly as long as its op list: every compile first drops the
# plans whose ``ops`` no one but plan slots still references (see
# :func:`_drop_dead_plans`), so plan memory tracks live trace memory.
_TRACE_PLANS: Dict[tuple, _TracePlan] = {}


def _sole_holder_refcount() -> int:
    """``sys.getrefcount(plan.ops)`` for ops held by one plan slot only.

    Measured rather than assumed: the count a call adds for its own
    argument differs across interpreter versions.
    """
    probe = _TracePlan()
    probe.ops = []
    return sys.getrefcount(probe.ops)


_SOLE_HOLDER_REFS = _sole_holder_refcount()


def _drop_dead_plans() -> None:
    """Drop every plan whose op list only plan slots still reference.

    An op list planned under k geometries is held by k plan slots; it
    is dead once its refcount exceeds the sole-holder count by no more
    than the k - 1 other slots.
    """
    slots = Counter(key[0] for key in _TRACE_PLANS)
    dead = [key for key, plan in _TRACE_PLANS.items()
            if sys.getrefcount(plan.ops) - slots[key[0]]
            < _SOLE_HOLDER_REFS]
    for key in dead:
        del _TRACE_PLANS[key]


def _trace_plan(ops: tuple, descriptors: tuple) -> Optional[_TracePlan]:
    """Build (or fetch) the batch replay plan for ``ops``."""
    _d1, _d2, _d3 = descriptors
    s1, m1, t1 = _d1[1], _d1[2], _d1[3]
    s2, m2, t2 = _d2[1], _d2[2], _d2[3]
    s3, m3, t3 = _d3[1], _d3[2], _d3[3]
    key = (id(ops), s1, m1, t1, s2, m2, t2, s3, m3, t3)
    plan = _TRACE_PLANS.get(key)
    if plan is not None:
        return plan
    _drop_dead_plans()
    n = len(ops)
    try:
        addresses = _np.fromiter((op[0] for op in ops),
                                 dtype=_np.int64, count=n)
    except OverflowError:  # addresses beyond int64: scalar path
        return None
    kinds = _np.fromiter(
        (_KIND_FLUSH if op[1] is OpKind.FLUSH
         else _KIND_STORE if op[1] is OpKind.STORE
         else _KIND_LOAD for op in ops),
        dtype=_np.int8, count=n)

    line1 = addresses >> s1
    line2 = addresses >> s2
    line3 = addresses >> s3
    accesses = kinds != _KIND_FLUSH
    # MRU mask: an access whose predecessor is an access to the same L1
    # line is a guaranteed hit (the line is most-recently-used and the
    # shortcut mutates nothing).  The first op of each execution slice
    # is forced down the probe path at replay time, mirroring the
    # scalar loop's per-slice ``last_line = -1`` reset.
    same = _np.zeros(n, dtype=bool)
    if n > 1:
        same[1:] = (line1[1:] == line1[:-1]) & accesses[:-1]
    mru = accesses & same
    kindcat = _np.where(
        kinds == _KIND_FLUSH, _KIND_FLUSH,
        _np.where(mru, 1, 0)).astype(_np.int8).tolist()
    kinds_list = kinds.tolist()

    # Guaranteed-miss analysis (Flush+Reload's reload pass): an access
    # whose most recent same-line predecessor *within this trace* is a
    # flush must miss every level — provided the flush executed in the
    # same slice, because nothing else can run (and so nothing can
    # re-insert the line) between two ops of one replay call.  guard[i]
    # records that flush's op index (-1 when the guarantee cannot be
    # made statically); replay checks guard >= slice start at run time.
    # Only valid when every level shares one line size, so "same line"
    # means the same bytes at every level.
    guard = [-1] * n
    if s1 == s2 == s3:
        lines = line1.tolist()
        last_touch: Dict[int, int] = {}
        for i in range(n):
            line = lines[i]
            previous = last_touch.get(line)
            if kinds_list[i] == _KIND_FLUSH:
                last_touch[line] = ~i  # flushes encode as ~index
            else:
                if previous is not None and previous < 0:
                    guard[i] = ~previous
                    if kindcat[i] == 0:
                        kindcat[i] = 3
                last_touch[line] = i

    plan = _TracePlan()
    plan.ops = ops
    plan.kindcat = kindcat
    plan.se1 = (line1 & m1).tolist()
    plan.tg1 = (line1 >> t1).tolist()
    plan.se2 = (line2 & m2).tolist()
    plan.tg2 = (line2 >> t2).tolist()
    plan.se3 = (line3 & m3).tolist()
    plan.tg3 = (line3 >> t3).tolist()
    stores = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(kinds == _KIND_STORE, out=stores[1:])
    plan.pre_store = stores.tolist()
    flushes = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(kinds == _KIND_FLUSH, out=flushes[1:])
    plan.pre_flush = flushes.tolist()

    # Segment table: for every op, the end of the maximal run of ops of
    # its category, so replay consumes flush/MRU/guaranteed-miss runs
    # in O(1) and walks probe runs in one tight inner loop.
    seg_end = [0] * n
    for i in range(n - 1, -1, -1):
        if i + 1 < n and kindcat[i + 1] == kindcat[i]:
            seg_end[i] = seg_end[i + 1]
        else:
            seg_end[i] = i + 1
    plan.seg_end = seg_end
    # Suffix-min of guard over each guaranteed-miss run: the whole
    # remainder of a run is provably absent iff every member's flush
    # happened at or after the slice start.
    guard_min = guard
    for i in range(n - 2, -1, -1):
        if kindcat[i] == 3 and kindcat[i + 1] == 3:
            if guard_min[i + 1] < guard_min[i]:
                guard_min[i] = guard_min[i + 1]
    plan.guard_min = guard_min
    flush_start = [0] * n
    for i in range(n):
        if kindcat[i] == _KIND_FLUSH:
            flush_start[i] = (flush_start[i - 1]
                              if i and kindcat[i - 1] == _KIND_FLUSH else i)
    plan.flush_start = flush_start
    # Per maximal flush run: the collapsed per-level wipe list
    # [(set index, {tags})].  A flush is a presence-independent pop, so
    # a whole run applies as one set-intersection removal per touched
    # set instead of three dict pops per op.
    collapsed = {}
    se_tg = ((plan.se1, plan.tg1), (plan.se2, plan.tg2),
             (plan.se3, plan.tg3))
    for run in range(n):
        if kindcat[run] != _KIND_FLUSH or flush_start[run] != run:
            continue
        end = seg_end[run]
        levels = []
        for se, tg in se_tg:
            wipes: Dict[int, set] = {}
            for i in range(run, end):
                wipes.setdefault(se[i], set()).add(tg[i])
            levels.append(list(wipes.items()))
        collapsed[run] = levels
    plan.flush_collapsed = collapsed

    _TRACE_PLANS[key] = plan
    return plan


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
                if plan is not None:
                    return self._run_trace_batch(
                        cursor, block, budget_ns, plan)
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

        cycles = 0
        l1h = l1m = l2h = l2m = l3h = l3m = 0
        start = cursor.op_index
        p = start
        total = len(kindcat)
        while p < total and cycles < budget_cycles:
            cat = kindcat[p]
            if cat == 1 and p == start:
                # Resuming mid-run: the predecessor ran in an earlier
                # slice, so probe exactly as the scalar loop (which
                # resets last_line per slice) would.  The line is still
                # MRU, so the probe's move_to_end is order-neutral.
                cat = 0
            elif cat == 3:
                # Only ops whose covering flush executed inside *this*
                # slice are provably absent; older guards mean another
                # program may have re-filled the line between slices,
                # so those ops take the full probe.
                if guard_min[p] < start:
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
        pre_flush = plan.pre_flush
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
        flush_kind = OpKind.FLUSH
        store_kind = OpKind.STORE
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
        ops_done = 0
        start = cursor.op_index
        ops = block.ops
        total = len(ops)
        while start + ops_done < total and cycles < budget_cycles:
            address, kind = ops[start + ops_done]
            cycles += folded_cycles
            if kind is flush_kind:
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
                if kind is store_kind:
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
            ops_done += 1
        if ops_done:
            self.pmu.accumulate_epoch(
                _EPOCH_EVENTS,
                (instructions, cycles, cycles * self.tsc_ratio,
                 loads, stores, flushes,
                 l1_misses, l2_misses, llc_refs, llc_misses),
                block.privilege)
            cursor.consume_ops(ops_done)
        return self.cycles_to_ns(cycles), instructions
