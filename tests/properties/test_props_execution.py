"""Property-based tests: execution conservation under arbitrary slicing.

The central correctness property of the whole reproduction: *how* a
program is sliced by preemption must not change *what* it executes —
total instructions, events, and CPU time are conserved.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import Core, ExecStop
from repro.hw.pmu import Pmu, RDPMC_FIXED_FLAG
from repro.workloads.base import (BlockCursor, ListProgram, MemOp, OpKind,
                                  RateBlock, TraceBlock)

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
    ops = tuple(ops) * repeats
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
