"""Property-based tests: execution conservation under arbitrary slicing.

The central correctness property of the whole reproduction: *how* a
program is sliced by preemption must not change *what* it executes —
total instructions, events, and CPU time are conserved.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.hw.core import Core, ExecStop, _trace_plan
from repro.hw.machine import Machine
from repro.hw.pmu import Pmu, RDPMC_FIXED_FLAG
from repro.hw.presets import i7_920
from repro.workloads.base import (KIND_CODES, BlockCursor, ListProgram,
                                  MemOp, OpKind, RateBlock, Trace,
                                  TraceBlock)
from repro.workloads.meltdown import _flush_reload_tile

LINE = 64


def make_core():
    pmu = Pmu()
    pmu.program_counter(0, "LOADS", user=True, kernel=True)
    pmu.program_counter(1, "LLC_MISSES", user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    cache = CacheHierarchy(
        [CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4)],
        memory_latency_cycles=100,
    )
    return Core(frequency_hz=1e9, pmu=pmu, cache=cache)


def run_sliced(program, budgets):
    """Execute a program with the given slice budgets (then to the end);
    returns (instructions, loads, inst_retired, consumed_ns)."""
    core = make_core()
    cursor = BlockCursor(program)
    instructions = 0.0
    consumed = 0
    for budget in budgets:
        result = core.execute(cursor, budget)
        instructions += result.instructions
        consumed += result.consumed_ns
        if result.stop is ExecStop.PROGRAM_DONE:
            break
    else:
        while True:
            result = core.execute(cursor, 10_000_000)
            instructions += result.instructions
            consumed += result.consumed_ns
            if result.stop is ExecStop.PROGRAM_DONE:
                break
    return (
        instructions,
        core.pmu.rdpmc(0),
        core.pmu.rdpmc(RDPMC_FIXED_FLAG | 0),
        consumed,
    )


rate_blocks = st.builds(
    RateBlock,
    instructions=st.floats(min_value=1, max_value=5e4),
    rates=st.fixed_dictionaries({"LOADS": st.floats(min_value=0, max_value=2)}),
    cpi=st.floats(min_value=0.3, max_value=3.0),
)
trace_blocks = st.builds(
    lambda addresses, ipo: TraceBlock(
        ops=[MemOp(address * LINE) for address in addresses],
        instructions_per_op=ipo,
    ),
    addresses=st.lists(st.integers(0, 32), min_size=1, max_size=30),
    ipo=st.floats(min_value=0, max_value=10),
)
programs = st.lists(st.one_of(rate_blocks, trace_blocks),
                    min_size=1, max_size=6).map(
    lambda blocks: ListProgram("prop", blocks)
)
budget_lists = st.lists(st.integers(min_value=50, max_value=20_000),
                        max_size=20)


class TestSlicingConservation:
    @given(programs, budget_lists)
    @settings(max_examples=60, deadline=None)
    def test_slicing_conserves_instructions_and_events(self, program,
                                                       budgets):
        whole = run_sliced(program, [])
        sliced = run_sliced(program, budgets)
        assert sliced[0] == pytest.approx(whole[0], rel=1e-9, abs=1e-6)
        assert sliced[1] == whole[1]                     # LOADS (integer)
        assert abs(sliced[2] - whole[2]) <= 1            # INST floor
        # Time may differ by per-slice rounding only (<=1 ns per slice).
        assert abs(sliced[3] - whole[3]) <= len(budgets) + 1

    @given(programs)
    @settings(max_examples=40, deadline=None)
    def test_repeat_runs_identical(self, program):
        assert run_sliced(program, []) == run_sliced(program, [])


# ---------------------------------------------------------------------------
# Batch replay equivalence: _run_trace_batch vs _run_trace_generic
# ---------------------------------------------------------------------------

def make_core3():
    """A three-level hierarchy that satisfies the batch seam's guards
    (uniform line size, integer latencies, no prefetcher)."""
    pmu = Pmu()
    pmu.program_counter(0, "LOADS", user=True, kernel=True)
    pmu.program_counter(1, "LLC_MISSES", user=True, kernel=True)
    pmu.program_counter(2, "L1D_MISSES", user=True, kernel=True)
    pmu.program_counter(3, "CACHE_FLUSHES", user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    cache = CacheHierarchy(
        [
            CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("L2", 16 * LINE, ways=4, hit_latency_cycles=12),
            CacheConfig("L3", 64 * LINE, ways=8, hit_latency_cycles=40),
        ],
        memory_latency_cycles=100,
    )
    return Core(frequency_hz=1e9, pmu=pmu, cache=cache)


def run_three_level(program, budgets, force_generic):
    """Run ``program`` sliced by ``budgets`` on a 3-level core; returns
    every externally observable total and every level's final set
    contents, each set's tags in LRU order (oldest first), so a replay
    that fills the right lines in the wrong order differs.
    ``force_generic`` defeats the batch seam (via its integrality
    guard) so the same inputs replay through ``_run_trace_generic``,
    the per-op reference that defines the semantics; the run asserts
    that the reference actually ran."""
    core = make_core3()
    generic_calls = []
    if force_generic:
        core._integer_latencies = lambda: False
        original = core._run_trace_generic

        def counting(*args):
            generic_calls.append(1)
            return original(*args)

        core._run_trace_generic = counting
    cursor = BlockCursor(program)
    instructions = 0.0
    consumed = 0
    for budget in budgets:
        result = core.execute(cursor, budget)
        instructions += result.instructions
        consumed += result.consumed_ns
        if result.stop is ExecStop.PROGRAM_DONE:
            break
    else:
        while True:
            result = core.execute(cursor, 10_000_000)
            instructions += result.instructions
            consumed += result.consumed_ns
            if result.stop is ExecStop.PROGRAM_DONE:
                break
    if force_generic:
        assert generic_calls
    stats = core.cache.stats
    return (
        instructions,
        consumed,
        tuple(core.pmu.rdpmc(index) for index in range(4)),
        tuple(core.pmu.rdpmc(RDPMC_FIXED_FLAG | index) for index in range(3)),
        (stats.accesses, stats.misses, stats.flushes),
        tuple(tuple(tuple(entries) for entries in level._sets)
              for level in core.cache.levels),
    )


# Op patterns chosen to exercise every segment class the batch planner
# emits: same-line runs (MRU), flush runs over both previously-touched
# and cold lines, reloads whose misses are guaranteed by a preceding
# flush, and plain mixed probes.  Tiling the round pushes the op count
# past the batch floor and makes segments repeat across slices.
_round_ops = st.lists(
    st.one_of(
        st.tuples(st.just("load"), st.integers(0, 24)),
        st.tuples(st.just("store"), st.integers(0, 24)),
        st.tuples(st.just("flush"), st.integers(0, 24)),
        # Page-spaced probe lines (the Flush+Reload shape), loaded or
        # flushed.
        st.tuples(st.just("probe"), st.integers(0, 24)),
        st.tuples(st.just("probe-flush"), st.integers(0, 24)),
    ),
    min_size=4, max_size=40,
)


def _build_trace(round_spec, repeats, ipo, event_scale):
    ops = []
    for kind, index in round_spec:
        if kind == "load":
            ops.append(MemOp(index * LINE, OpKind.LOAD))
        elif kind == "store":
            ops.append(MemOp(index * LINE, OpKind.STORE))
        elif kind == "flush":
            ops.append(MemOp(index * LINE, OpKind.FLUSH))
        elif kind == "probe-flush":
            ops.append(MemOp(0x400_0000 + index * 4096, OpKind.FLUSH))
        else:
            ops.append(MemOp(0x400_0000 + index * 4096, OpKind.LOAD))
    # Tiled as a Trace, so a round that happens to be flush-first is
    # counted instead of replayed.
    ops = Trace.from_ops(ops) * repeats
    block = TraceBlock(ops=ops, instructions_per_op=float(ipo),
                       event_scale=float(event_scale))
    return ListProgram("prop-batch", [block])


class TestBatchReplayEquivalence:
    @given(_round_ops,
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=4),
           budget_lists)
    # One Flush+Reload round: its reloads form a guaranteed-miss run
    # whose lines all share a set, so their fill order is visible.
    @example([("probe-flush", index) for index in range(8)]
             + [("probe", index) for index in range(8)], 6, 1, 1, [])
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_bit_for_bit(self, round_spec, repeats,
                                              ipo, event_scale, budgets):
        """The tentpole gate: segment-batched replay is observationally
        identical to the per-op reference — instructions, consumed
        time, every PMU counter, the cache statistics, and every
        level's final set contents in LRU order — under arbitrary
        preemption slicing."""
        program = _build_trace(round_spec, repeats, ipo, event_scale)
        generic = run_three_level(program, budgets, force_generic=True)
        batch = run_three_level(program, budgets, force_generic=False)
        assert batch == generic

    @given(_round_ops, st.integers(min_value=2, max_value=8),
           budget_lists)
    @settings(max_examples=30, deadline=None)
    def test_batch_path_actually_engages(self, round_spec, repeats,
                                         budgets):
        """Guard against the equivalence test going vacuous: with the
        seam's preconditions met, the batch path must be the one that
        runs (at least once for a big-enough trace)."""
        # Tile past the batch floor (64 ops) or the seam won't engage.
        floor_repeats = -(-64 // len(round_spec))
        program = _build_trace(round_spec, max(repeats, floor_repeats),
                               3, 2)
        core = make_core3()
        calls = []
        original = core._run_trace_batch

        def counting(cursor, block, budget_ns, plan):
            calls.append(1)
            return original(cursor, block, budget_ns, plan)

        core._run_trace_batch = counting
        cursor = BlockCursor(program)
        for budget in budgets:
            if core.execute(cursor, budget).stop is ExecStop.PROGRAM_DONE:
                break
        else:
            while core.execute(cursor,
                               10_000_000).stop is not ExecStop.PROGRAM_DONE:
                pass
        assert calls


# ---------------------------------------------------------------------------
# Flush-first tiles: chained slices and counted rounds under foreign
# activity between slices
# ---------------------------------------------------------------------------

_L1 = CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4)
_L2 = CacheConfig("L2", 16 * LINE, ways=4, hit_latency_cycles=12)
_L3 = CacheConfig("L3", 64 * LINE, ways=8, hit_latency_cycles=40)


def _slot_address(slot):
    """Slots 0-5 are consecutive lines; 6-15 are a page apart, so they
    pile into one set at every level, as Flush+Reload probes do.  Rounds
    use slots 0-11; 12-15 are only ever touched by foreign activity."""
    return slot * LINE if slot < 6 else 0x400_0000 + slot * 4096


def make_counting_core(cache, force_generic):
    """A 1 GHz core on ``cache`` whose PMU counts loads, LLC and L1
    misses and flushes; with ``force_generic``, only the scalar path."""
    pmu = Pmu()
    for index, event in enumerate(("LOADS", "LLC_MISSES", "L1D_MISSES",
                                   "CACHE_FLUSHES")):
        pmu.program_counter(index, event, user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    core = Core(frequency_hz=1e9, pmu=pmu, cache=cache)
    if force_generic:
        core._integer_latencies = lambda: False
        core._run_trace_batch = None  # fails loudly if it is reached
    return core


def make_sharing_cores(force_generic):
    """Two cores whose private L1/L2 sit on one shared L3."""
    shared = CacheLevel(_L3)
    return [make_counting_core(CacheHierarchy([_L1, _L2],
                                              memory_latency_cycles=100,
                                              shared_llc=shared),
                               force_generic)
            for _ in range(2)]


def make_private_core(force_generic):
    """One core on a hierarchy that shares no level: the batch path may
    defer a partial round's writes."""
    return make_counting_core(CacheHierarchy([_L1, _L2, _L3],
                                             memory_latency_cycles=100),
                              force_generic)


def flush_first_tile(flushed, accesses, repeats):
    """``repeats`` copies (at least 64 ops) of a round that flushes the
    ``flushed`` slots, then loads or stores ``(slot, offset, is_store)``
    accesses, if any."""
    round_trace = (Trace([_slot_address(slot) for slot in flushed],
                         OpKind.FLUSH)
                   + Trace([_slot_address(slot) + offset
                            for slot, offset, _ in accesses],
                           np.array([KIND_CODES[OpKind.STORE if store
                                                else OpKind.LOAD]
                                     for _, _, store in accesses],
                                    dtype=np.uint8)))
    return round_trace * max(repeats, -(-64 // len(round_trace)))


def _foreign_replay(core, trace):
    cursor = BlockCursor(ListProgram("foreign", [TraceBlock(ops=trace)]))
    while core.execute(cursor, 10_000_000).stop is not ExecStop.PROGRAM_DONE:
        pass


def _long_foreign_trace(slot):
    """A 64-op trace (long enough for the batch path): flush one slot,
    then load every slot in turn."""
    return Trace.from_ops([(_slot_address(slot), OpKind.FLUSH)]
                          + [(_slot_address((slot + step) % 16), OpKind.LOAD)
                             for step in range(63)])


def apply_foreign(op, cores, tile):
    """Touch the caches between two slices of ``tile`` on core 0."""
    core, other = cores
    name = op[0]
    if name == "access":
        core.cache.access(_slot_address(op[1]), is_write=op[2])
    elif name == "clflush":
        core.cache.clflush(_slot_address(op[1]))
    elif name == "contains":
        core.cache.contains(_slot_address(op[1]))
    elif name == "level-release":
        # One level's sets go: the hierarchy is cold until its next
        # touch, which brings back an empty level under warm ones.
        core.cache.levels[op[1]].release()
    elif name == "release":
        # This hierarchy goes cold until its next replay, and so does
        # the second one, whose L3 went with it.
        core.cache.release()
    elif name == "replay-short":
        # Under 64 ops: the scalar path, through access_fast/clflush.
        kind = OpKind.FLUSH if op[2] else OpKind.LOAD
        _foreign_replay(core, Trace([_slot_address(op[1])], kind))
    elif name == "replay-long":
        _foreign_replay(core, _long_foreign_trace(op[1]))
    elif name == "same-tile":
        # A second program replaying the same tile from its start, for
        # one slice of op[1] ns.
        cursor = BlockCursor(ListProgram("twin", [TraceBlock(ops=tile)]))
        core.execute(cursor, op[1])
    elif name == "other-access":
        other.cache.access(_slot_address(op[1]))
    elif name == "other-replay":
        _foreign_replay(other, _long_foreign_trace(op[1]))
    elif name == "other-release":
        # Tear the second hierarchy down, shared L3 included, and bring
        # it back: the L3 is empty under the first core's feet.
        other.cache.release()
        other.cache.warm()


def counters(core):
    """The core's counters and its cache statistics (reads no set)."""
    cache = core.cache
    return (
        tuple(core.pmu.rdpmc(index) for index in range(4)),
        tuple(core.pmu.rdpmc(RDPMC_FIXED_FLAG | index) for index in range(3)),
        (cache.stats.accesses, dict(cache.stats.hits),
         dict(cache.stats.misses), cache.stats.flushes),
        tuple((level.hits, level.misses) for level in cache.levels),
    )


def set_contents(core):
    """Each level's sets with their tags in LRU order, read directly (a
    deferred round prefix stays unapplied)."""
    return tuple(tuple(tuple(entries) for entries in level._sets)
                 for level in core.cache.levels)


def snapshot(cores):
    """Every observable of both cores: counters, cache statistics and
    each level's sets with their tags in LRU order."""
    return [(counters(core), set_contents(core)) for core in cores]


def run_with_foreign(trace, ipo, steps, force_generic):
    """Replay ``trace`` on core 0 one budget at a time, applying each
    step's foreign op after its slice; the observables after every
    slice."""
    cores = make_sharing_cores(force_generic)
    core = cores[0]
    cursor = BlockCursor(ListProgram("tile", [TraceBlock(
        ops=trace, instructions_per_op=float(ipo))]))
    log = []
    for budget, op in steps + [(10_000_000, ("none",))] * 2:
        result = core.execute(cursor, budget)
        log.append((result.consumed_ns, result.instructions, result.stop))
        apply_foreign(op, cores, trace)
        log.append(snapshot(cores))
    return log


_slots = st.integers(0, 15)
_foreign_ops = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("access"), _slots, st.booleans()),
    st.tuples(st.just("clflush"), _slots),
    st.tuples(st.just("level-release"), st.integers(0, 2)),
    st.just(("release",)),
    st.tuples(st.just("replay-short"), _slots, st.booleans()),
    st.tuples(st.just("replay-long"), _slots),
    st.tuples(st.just("same-tile"), st.integers(50, 8_000)),
    st.tuples(st.just("other-access"), _slots),
    st.tuples(st.just("other-replay"), _slots),
    st.just(("other-release",)),
)
_flush_first_rounds = st.lists(st.integers(0, 11), min_size=1, max_size=8,
                               unique=True).flatmap(
    lambda flushed: st.tuples(st.just(flushed), st.lists(
        st.tuples(st.sampled_from(flushed), st.sampled_from((0, 8)),
                  st.booleans()),
        max_size=16)))
_steps = st.lists(st.tuples(st.integers(50, 8_000), _foreign_ops),
                  max_size=16)

class TestFlushFirstRounds:
    @given(_flush_first_rounds, st.integers(2, 12), st.integers(0, 4),
           _steps)
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_generic_with_foreign_activity(
            self, round_spec, repeats, ipo, steps):
        """Batch replay of a flush-first tile, chains and counted rounds
        included, equals the per-op reference after every slice, while
        foreign replays, accesses, flushes and releases (on this
        hierarchy or on a second one sharing its L3) run between
        slices."""
        trace = flush_first_tile(*round_spec, repeats)
        assert trace.period
        generic = run_with_foreign(trace, ipo, steps, force_generic=True)
        batch = run_with_foreign(trace, ipo, steps, force_generic=False)
        assert batch == generic


    # A round of one line per L1 set (flush, flush, load, load: 296
    # cycles at ipo 4), so lines outside the round share a set with the
    # round's own and survive it: slots 2, 4 and 12-15 share slot 0's.
    TWO_LINES = ([0, 1], [(0, 0, False), (1, 0, False)])
    # Foreign ops that each change the caches through one path, with
    # the op that first makes that change pure (a hit needs the line
    # cached, and caching it is a change of its own).
    TOUCHES = {
        "access-hit": (("access", 2, False), ("access", 2, False)),
        "access-miss": (("none",), ("access", 4, False)),
        "replay-short-hit": (("replay-short", 2, False),
                             ("replay-short", 2, False)),
        "replay-short-miss": (("none",), ("replay-short", 4, False)),
        "clflush": (("none",), ("clflush", 0)),
        "level-release": (("none",), ("level-release", 0)),
        "release": (("none",), ("release",)),
        "other-replay": (("none",), ("other-replay", 0)),
        "other-release": (("none",), ("other-release",)),
        "same-tile": (("none",), ("same-tile", 650)),
    }

    @pytest.mark.parametrize("touch", sorted(TOUCHES))
    def test_touch_before_counted_rounds(self, touch):
        """A foreign op lands just before the last slice, which counts
        every remaining round if it (wrongly) continues the chain, so
        nothing replays over the change.  The slice before the op ends
        at every point of a round in turn.  Fails if the op's path does
        not move a level's version, or if the last slice continues a
        chain it should not."""
        setup, op = self.TOUCHES[touch]
        trace = flush_first_tile(*self.TWO_LINES, 40)
        for budget in range(1200, 1500, 8):
            steps = [(50, setup), (budget, op)]
            assert (run_with_foreign(trace, 4, steps, force_generic=False)
                    == run_with_foreign(trace, 4, steps, force_generic=True))


class _CountingSet(OrderedDict):
    """A cache set that counts its inserts."""

    inserts = 0

    def __setitem__(self, key, value):
        type(self).inserts += 1
        super().__setitem__(key, value)


def _count_inserts(core):
    core.cache.warm()
    for level in core.cache.levels:
        level._sets[:] = [_CountingSet() for _ in level._sets]
    _CountingSet.inserts = 0


class TestRoundsAreCounted:
    """Guards against the equivalence tests going vacuous: rounds really
    are counted, not replayed.  A counted round moves the miss counters
    without inserting a line."""

    TILE = (list(range(6, 12)),
            [(slot, 0, False) for slot in range(6, 12)] * 2)
    # Six probes in one set per level: each round misses all three
    # levels on its first pass and hits only the 8-way L3 on its second.
    # 6 flushes at 40 cycles, 6 memory reads at 100 and 6 L3 hits at 40,
    # at 1 GHz; a replayed round inserts 12 lines into L1 and L2 and 6
    # into L3.
    ROUND_NS = 6 * 40 + 6 * 100 + 6 * 40
    ROUND_INSERTS = 30

    def _replay(self, trace, budget, touch=False):
        """Replay ``trace`` in slices of ``budget``; with ``touch``, one
        access between every two slices.  Returns the core and the
        lines the replay itself inserted."""
        (core, _other) = make_sharing_cores(force_generic=False)
        _count_inserts(core)
        foreign = 0
        cursor = BlockCursor(ListProgram("tile", [TraceBlock(ops=trace)]))
        while core.execute(cursor, budget).stop is not ExecStop.PROGRAM_DONE:
            if touch:
                before = _CountingSet.inserts
                core.cache.access(_slot_address(14))
                foreign += _CountingSet.inserts - before
        return core, _CountingSet.inserts - foreign

    def test_one_long_slice_counts_rounds(self):
        trace = flush_first_tile(*self.TILE, 50)
        core, inserts = self._replay(trace, 10_000_000)
        plan = _trace_plan(trace, core.cache._descriptors)
        assert plan.period == 18
        assert plan.round_counts == (6, 0, 0, 6, 6)
        assert core.cache.levels[0].misses == 50 * 12
        # One round ran for real: its counts were recorded, and every
        # later round follows it in the chain.
        assert inserts == self.ROUND_INSERTS

    def test_chain_carries_rounds_across_short_slices(self):
        """Slices of 1.5 rounds never hold a whole round after their
        first boundary, so a round is counted only when its predecessor
        ran in an earlier slice of the chain.  An access between every
        two slices breaks every chain, and all 50 rounds replay."""
        trace = flush_first_tile(*self.TILE, 50)
        self._replay(trace, 10_000_000)  # records the round counts
        budget = self.ROUND_NS * 3 // 2
        chained, inserts = self._replay(trace, budget)
        _broken, broken_inserts = self._replay(trace, budget, touch=True)
        assert chained.cache.levels[0].misses == 50 * 12
        assert broken_inserts == 50 * self.ROUND_INSERTS
        assert inserts < 50 * self.ROUND_INSERTS * 3 // 4


# ---------------------------------------------------------------------------
# A private hierarchy: partial rounds at slice edges are deferred
# ---------------------------------------------------------------------------

def run_private(trace, ipo, steps, force_generic):
    """Replay ``trace`` on a private hierarchy one budget at a time, with
    each step's foreign op after its slice.  Logs the counters after
    every slice without settling, the set contents after every foreign
    op (which must have settled) and at program end."""
    core = make_private_core(force_generic)
    cursor = BlockCursor(ListProgram("tile", [TraceBlock(
        ops=trace, instructions_per_op=float(ipo))]))
    log = []
    for budget, op in steps + [(10_000_000, ("none",))] * 2:
        result = core.execute(cursor, budget)
        log.append((result.consumed_ns, result.instructions, result.stop,
                    counters(core)))
        if op[0] != "none":
            apply_foreign(op, (core, None), trace)
            if op[0] == "same-tile":
                # The twin's slice may defer a prefix of its own.
                core.cache.settle()
            assert core.cache.deferred is None
            log.append((op, counters(core), set_contents(core)))
    core.cache.settle()
    log.append(set_contents(core))
    return log


_private_foreign_ops = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("access"), _slots, st.booleans()),
    st.tuples(st.just("clflush"), _slots),
    st.tuples(st.just("contains"), _slots),
    st.tuples(st.just("level-release"), st.integers(0, 2)),
    st.just(("release",)),
    st.tuples(st.just("replay-short"), _slots, st.booleans()),
    st.tuples(st.just("replay-long"), _slots),
    st.tuples(st.just("same-tile"), st.integers(50, 8_000)),
)
_private_steps = st.lists(
    st.tuples(st.integers(50, 8_000), _private_foreign_ops), max_size=16)


class TestDeferredRoundPrefix:
    @given(_flush_first_rounds, st.integers(2, 12), st.integers(0, 4),
           _private_steps)
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_generic_with_foreign_activity(
            self, round_spec, repeats, ipo, steps):
        """On a private hierarchy, batch replay (counted rounds and
        deferred round prefixes included) equals the per-op reference:
        counters and statistics after every slice, and the sets after
        every foreign op and at program end."""
        trace = flush_first_tile(*round_spec, repeats)
        assert (run_private(trace, ipo, steps, force_generic=False)
                == run_private(trace, ipo, steps, force_generic=True))

    # Slots 0, 2 and 4 share one L1 set (2 ways): the third load hits
    # and makes slot 0 MRU again, so the fourth evicts slot 2.  A round
    # costs 3 flushes at 44 cycles, 3 memory reads at 104 and one L1
    # hit at 8 (ipo 4, 1 GHz).
    REORDER = ([0, 2, 4], [(0, 0, False), (2, 0, False), (0, 8, False),
                           (4, 0, False)])
    ROUND_NS = 3 * 44 + 3 * 104 + 8
    # Foreign ops that read or write the sets, each landing after a
    # slice that stops at every point of the third round in turn.
    TOUCHES = {
        "access": ("access", 2, False),
        "clflush": ("clflush", 0),
        "contains": ("contains", 1),
        "level-release": ("level-release", 1),
        "release": ("release",),
        "replay-short": ("replay-short", 4, False),
        "replay-long": ("replay-long", 0),
        "same-tile": ("same-tile", 650),
    }

    @pytest.mark.parametrize("touch", sorted(TOUCHES))
    def test_touch_after_a_deferred_prefix(self, touch):
        """The first slice runs two rounds (the second is counted) and
        stops inside the third, so its prefix is deferred; the touch
        must settle it before it reads or writes the sets."""
        trace = flush_first_tile(*self.REORDER, 40)
        op = self.TOUCHES[touch]
        for budget in range(2 * self.ROUND_NS + 1, 3 * self.ROUND_NS, 4):
            steps = [(budget, op), (self.ROUND_NS + 100, op)]
            assert (run_private(trace, 4, steps, force_generic=False)
                    == run_private(trace, 4, steps, force_generic=True))


class TestPartialRoundsAreDeferred:
    """Guards against the private-hierarchy tests going vacuous: on the
    Meltdown tile at 100 us slices, only the first round writes the
    sets."""

    @staticmethod
    def _machine_core(force_generic):
        machine = Machine(i7_920())
        if force_generic:
            machine.core._integer_latencies = lambda: False
        return machine.core

    def test_only_the_first_round_inserts(self):
        tile = _flush_reload_tile(0x4000_0000, 4096, 83, 40)
        core = self._machine_core(force_generic=False)
        _count_inserts(core)
        cursor = BlockCursor(ListProgram("tile", [TraceBlock(ops=tile)]))
        slice_inserts, deferred = [], 0
        while True:
            before = _CountingSet.inserts
            result = core.execute(cursor, 100_000)
            slice_inserts.append(_CountingSet.inserts - before)
            deferred += core.cache.deferred is not None
            if result.stop is ExecStop.PROGRAM_DONE:
                break
        plan = _trace_plan(tile, core.cache._descriptors)
        assert len(slice_inserts) > 5 and deferred >= len(slice_inserts) - 2
        # The first slice replays round 0 (three levels' fills, bar the
        # transient line's L3 hit) and counts the rest.
        assert slice_inserts[0] == 3 * 256 + 2 * 1
        assert slice_inserts[1:] == [0] * (len(slice_inserts) - 1)
        assert core.cache.levels[2].misses == 40 * plan.round_counts[4]

    def test_contains_after_a_deferred_slice_matches_generic(self):
        tile = _flush_reload_tile(0x4000_0000, 4096, 83, 40)
        probes = [0x4000_0000 + index * 4096 for index in range(256)]

        def observe(force_generic):
            core = self._machine_core(force_generic)
            cursor = BlockCursor(ListProgram("tile", [TraceBlock(ops=tile)]))
            seen = []
            while core.execute(cursor,
                               100_000).stop is not ExecStop.PROGRAM_DONE:
                deferred = core.cache.deferred is not None
                seen.append((deferred, [core.cache.contains(address)
                                        for address in probes]))
                assert core.cache.deferred is None
            return seen

        batch = observe(force_generic=False)
        assert any(deferred for deferred, _ in batch)
        assert [lines for _, lines in batch] == [
            lines for _, lines in observe(force_generic=True)]
