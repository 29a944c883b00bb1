"""The vectorized trace-plan compiler against its per-op reference.

``reference_plan`` is the compiler as a set of per-op Python loops, kept
here as the definition: every ``_TracePlan`` slot the array compiler in
``hw/core.py`` produces must equal it, for any op mix and geometry.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import ExecStop, _TracePlan, _trace_plan
from repro.hw.machine import Machine
from repro.hw.pmu import RDPMC_FIXED_FLAG
from repro.hw.presets import i7_920, xeon_8259cl
from repro.workloads.base import (
    BlockCursor,
    ListProgram,
    MemOp,
    OpKind,
    Trace,
    TraceBlock,
)
from repro.workloads.meltdown import _flush_reload_tile

LINE = 64
LOAD, STORE, FLUSH = 0, 1, 2


def reference_plan(trace, descriptors) -> Dict[str, object]:
    """Every plan slot, compiled one op at a time."""
    _d1, _d2, _d3 = descriptors
    s1, m1, t1 = _d1[1], _d1[2], _d1[3]
    s2, m2, t2 = _d2[1], _d2[2], _d2[3]
    s3, m3, t3 = _d3[1], _d3[2], _d3[3]
    n = len(trace)
    addresses = trace.addresses.tolist()
    kinds = trace.kinds.tolist()
    line1 = [address >> s1 for address in addresses]
    line2 = [address >> s2 for address in addresses]
    line3 = [address >> s3 for address in addresses]
    kindcat = []
    for i in range(n):
        if kinds[i] == FLUSH:
            kindcat.append(FLUSH)
        elif i and kinds[i - 1] != FLUSH and line1[i] == line1[i - 1]:
            kindcat.append(1)
        else:
            kindcat.append(0)
    guard = [-1] * n
    if s1 == s2 == s3:
        last_touch: Dict[int, int] = {}
        for i in range(n):
            line = line1[i]
            previous = last_touch.get(line)
            if kinds[i] == FLUSH:
                last_touch[line] = ~i  # flushes encode as ~index
            else:
                if previous is not None and previous < 0:
                    guard[i] = ~previous
                    if kindcat[i] == 0:
                        kindcat[i] = 3
                last_touch[line] = i
    seg_end = [0] * n
    for i in range(n - 1, -1, -1):
        if i + 1 < n and kindcat[i + 1] == kindcat[i]:
            seg_end[i] = seg_end[i + 1]
        else:
            seg_end[i] = i + 1
    guard_min = guard
    for i in range(n - 2, -1, -1):
        if kindcat[i] == 3 and kindcat[i + 1] == 3:
            if guard_min[i + 1] < guard_min[i]:
                guard_min[i] = guard_min[i + 1]
    flush_start = [0] * n
    for i in range(n):
        if kindcat[i] == FLUSH:
            flush_start[i] = (flush_start[i - 1]
                              if i and kindcat[i - 1] == FLUSH else i)
    pre_store, pre_flush = [0], [0]
    for kind in kinds:
        pre_store.append(pre_store[-1] + (kind == STORE))
        pre_flush.append(pre_flush[-1] + (kind == FLUSH))
    se_tg = [([line & m1 for line in line1], [line >> t1 for line in line1]),
             ([line & m2 for line in line2], [line >> t2 for line in line2]),
             ([line & m3 for line in line3], [line >> t3 for line in line3])]
    collapsed = {}
    for run in range(n):
        if kindcat[run] != FLUSH or flush_start[run] != run:
            continue
        levels = []
        for se, tg in se_tg:
            wipes: Dict[int, set] = {}
            for i in range(run, seg_end[run]):
                wipes.setdefault(se[i], set()).add(tg[i])
            levels.append(list(wipes.items()))
        collapsed[run] = levels
    # A tile's round is flush-first when no flush follows an access and
    # every access's line, at each level's line size, was flushed
    # earlier in the round.
    period = trace.period
    flushed = (set(), set(), set())
    accessed = False
    for i in range(period):
        lines = (line1[i], line2[i], line3[i])
        if kinds[i] == FLUSH:
            if accessed:
                period = 0
                break
            for seen, line in zip(flushed, lines):
                seen.add(line)
        else:
            accessed = True
            if any(line not in seen for seen, line in zip(flushed, lines)):
                period = 0
                break
    return {
        "kindcat": kindcat, "seg_end": seg_end, "flush_start": flush_start,
        "flush_collapsed": collapsed,
        "se1": se_tg[0][0], "tg1": se_tg[0][1],
        "se2": se_tg[1][0], "tg2": se_tg[1][1],
        "se3": se_tg[2][0], "tg3": se_tg[2][1],
        "pre_store": pre_store, "pre_flush": pre_flush,
        "guard_min": guard_min, "period": period,
    }


def reference_round_profile(trace, descriptors, prefill=False):
    """``(round_levels, round_prefix)`` of a flush-first tile: one round
    replayed op by op through a hierarchy of this geometry, from empty
    or (``prefill``) with every set the round touches full, of the
    round's own lines and of others in the same sets."""
    configs = [descriptor[0].config for descriptor in descriptors]
    cache = CacheHierarchy(configs, memory_latency_cycles=200)
    addresses = trace.addresses[:trace.period].tolist()
    kinds = trace.kinds[:trace.period].tolist()
    if prefill:
        # A multiple of every level's set span: the same set everywhere.
        span = max(config.num_sets * config.line_bytes for config in configs)
        ways = max(config.ways for config in configs)
        for copy in range(ways, -1, -1):
            for address in addresses:
                cache.access(address + copy * span)
    hit_levels = []
    rows = [(0, 0, 0, 0, 0)]
    for address, kind in zip(addresses, kinds):
        row = list(rows[-1])
        if kind == FLUSH:
            cache.clflush(address)
            hit_levels.append(-1)
            row[0] += 1
        else:
            hit = cache.access_fast(address)
            hit_levels.append(hit)
            row[1 + hit] += 1
        rows.append(tuple(row))
    return hit_levels, [list(column) for column in zip(*rows)]


def reference_round_counts(trace, descriptors):
    """``_TracePlan.round_counts``: one round's counts."""
    _levels, prefix = reference_round_profile(trace, descriptors)
    return tuple(column[-1] for column in prefix)


def split_lines_geometry():
    """Three levels with 32/64/128-byte lines: no guaranteed misses."""
    return CacheHierarchy([
        CacheConfig("L1D", 8 * 32, ways=2, line_bytes=32,
                    hit_latency_cycles=4),
        CacheConfig("L2", 16 * 64, ways=4, hit_latency_cycles=11),
        CacheConfig("LLC", 32 * 128, ways=4, line_bytes=128,
                    hit_latency_cycles=39),
    ], memory_latency_cycles=200)._descriptors


GEOMETRIES = {
    "i7_920": Machine(i7_920()).cache._descriptors,
    "xeon_8259cl": Machine(xeon_8259cl()).cache._descriptors,
    "split_lines": split_lines_geometry(),
}
KINDS = (OpKind.LOAD, OpKind.STORE, OpKind.FLUSH)

# A few lines a page apart, touched at a few offsets each, so same-line
# MRU runs, flush runs and flush-then-reload misses all occur.
op_specs = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from((0, 8, 40)),
              st.sampled_from(KINDS)),
    min_size=1, max_size=160)


def assert_plan_matches(ops, descriptors):
    trace = ops if isinstance(ops, Trace) else Trace.from_ops(ops)
    plan = _trace_plan(trace, descriptors)
    expected = reference_plan(trace, descriptors)
    assert _trace_plan(trace, descriptors) is plan  # kept on the trace
    for slot in _TracePlan.__slots__:
        if slot not in ("__weakref__",) + ROUND_PROFILE:
            assert getattr(plan, slot) == expected[slot], slot
    if not plan.period:
        assert all(getattr(plan, slot) is None for slot in ROUND_PROFILE)
        return plan
    # The profile is the same from any start state: an empty cache, and
    # one whose sets the round touches are full.
    for prefill in (False, True):
        hit_levels, prefix = reference_round_profile(trace, descriptors,
                                                     prefill)
        assert plan.round_levels == hit_levels
        assert list(plan.round_prefix) == prefix
    assert plan.round_counts == reference_round_counts(trace, descriptors)
    return plan


ROUND_PROFILE = ("round_levels", "round_prefix", "round_counts",
                 "cycle_prefixes")


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=60, deadline=None)
@given(specs=op_specs, as_memops=st.booleans())
def test_plan_equals_reference(geometry, specs, as_memops):
    make = MemOp if as_memops else (lambda address, kind: (address, kind))
    ops = [make(0x4000_0000 + line * 4096 + offset, kind)
           for line, offset, kind in specs]
    assert_plan_matches(ops, GEOMETRIES[geometry])


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_attack_tile_plan_equals_reference(geometry):
    trace = _flush_reload_tile(0x4000_0000, 4096, 83, 3)
    plan = assert_plan_matches(trace, GEOMETRIES[geometry])
    has_guaranteed_misses = 3 in plan.kindcat
    assert has_guaranteed_misses == (geometry != "split_lines")


def test_runs_share_one_int_object():
    """A run's entries are one object, not one boxed int per op: long
    runs of values above the small-int cache cost one int each."""
    flushes = [MemOp(0x4000_0000 + index * 4096, OpKind.FLUSH)
               for index in range(600)]
    # Reloaded in reverse, so the run's guard suffix-min is one value.
    reloads = [MemOp(0x4000_0000 + index * 4096)
               for index in reversed(range(600))]
    stream = [MemOp(0x8000_0000 + index * LINE, OpKind.STORE)
              for index in range(600)]
    ops = stream + flushes + reloads
    plan = assert_plan_matches(ops, GEOMETRIES["i7_920"])
    assert plan.kindcat[600:1200] == [FLUSH] * 600
    assert plan.kindcat[1200:] == [3] * 600
    for first, last in ((0, 599), (600, 1199), (1200, 1799)):
        assert plan.seg_end[first] is plan.seg_end[last]
    assert plan.flush_start[600] is plan.flush_start[1199]
    assert plan.guard_min[1200] is plan.guard_min[1799]
    assert plan.guard_min[1200] == 600
    # After the stores the store count stays at 600 to the end, and
    # after the flush run so does the flush count.
    assert plan.pre_store[600] is plan.pre_store[1800]
    assert plan.pre_flush[1200] is plan.pre_flush[1800]


def observe(program, force_generic):
    """Replay ``program`` sliced at 50 us; every observable total."""
    machine = Machine(i7_920())
    pmu = machine.pmu
    pmu.program_counter(0, "LOADS", user=True, kernel=True)
    pmu.program_counter(1, "STORES", user=True, kernel=True)
    pmu.program_counter(2, "LLC_MISSES", user=True, kernel=True)
    pmu.program_counter(3, "CACHE_FLUSHES", user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    core = machine.core
    if force_generic:
        core._integer_latencies = lambda: False
    cursor = BlockCursor(program)
    instructions, consumed = 0.0, 0
    while True:
        result = core.execute(cursor, 50_000)
        instructions += result.instructions
        consumed += result.consumed_ns
        if result.stop is ExecStop.PROGRAM_DONE:
            break
    stats = machine.cache.stats
    return (instructions, consumed,
            tuple(pmu.rdpmc(index) for index in range(4)),
            tuple(pmu.rdpmc(RDPMC_FIXED_FLAG | index) for index in range(3)),
            (stats.accesses, stats.misses, stats.flushes))


def test_address_at_2_to_63_plans_and_replays_like_generic():
    ops = [MemOp(0x1000_0000 + index * LINE,
                 OpKind.STORE if index % 3 == 0 else OpKind.LOAD)
           for index in range(96)]
    ops[40] = MemOp(1 << 63, OpKind.LOAD)
    ops[41] = MemOp((1 << 64) - LINE, OpKind.FLUSH)
    ops[42] = MemOp((1 << 64) - 1, OpKind.LOAD)
    ops += [MemOp(0x1000_0000 + index * LINE, OpKind.FLUSH)
            for index in range(16)]
    ops += ops[:16]
    trace = Trace.from_ops(ops)
    assert trace.addresses[40] == 1 << 63
    assert_plan_matches(trace, GEOMETRIES["i7_920"])
    program = ListProgram("wide", [TraceBlock(
        ops=trace, instructions_per_op=3.0, event_scale=2.0)])
    assert observe(program, force_generic=False) == \
        observe(program, force_generic=True)


@pytest.mark.parametrize("address", [-1, -(1 << 63), 1 << 64, 1 << 70])
def test_address_out_of_range_is_rejected_when_the_trace_is_built(address):
    ops = [MemOp(0), MemOp(address, OpKind.FLUSH)]
    with pytest.raises(WorkloadError):
        Trace.from_ops(ops)
    with pytest.raises(WorkloadError):
        TraceBlock(ops=ops)
    with pytest.raises(WorkloadError):
        Trace([0, address])


def test_malformed_columns_are_rejected():
    with pytest.raises(WorkloadError):
        Trace(np.arange(-2, 2) * LINE)
    with pytest.raises(WorkloadError):
        Trace([0, LINE], np.array([0, 3]))
    with pytest.raises(WorkloadError):
        Trace([0], np.array([0, 1]))
    with pytest.raises(WorkloadError):
        TraceBlock(ops=[(0, "load")])


def test_addresses_just_below_2_to_63_still_plan():
    top = (1 << 63) - 64 * LINE
    ops = [MemOp(top + index * LINE,
                 OpKind.FLUSH if index % 7 == 0 else OpKind.LOAD)
           for index in range(64)]
    assert_plan_matches(ops, GEOMETRIES["i7_920"])


# Flush-first rounds: which tiles get a period.  Probe lines a page
# apart, as in Flush+Reload.
def probe(index):
    return 0x4000_0000 + index * 4096


def round_of(*ops):
    return Trace.from_ops([(probe(index), kind) for index, kind in ops])


FLUSH_FIRST = round_of(*[(index, OpKind.FLUSH) for index in range(8)],
                       *[(index, OpKind.LOAD) for index in (3, 0, 5, 3)],
                       (6, OpKind.STORE))
NOT_FLUSH_FIRST = {
    # Probe 2 is loaded before its flush.
    "load-before-flush": round_of(
        *[(index, OpKind.FLUSH) for index in (0, 1)], (2, OpKind.LOAD),
        (2, OpKind.FLUSH), *[(index, OpKind.LOAD) for index in (0, 1, 2)]),
    # Probe 9 is never flushed.
    "never-flushed": round_of(
        *[(index, OpKind.FLUSH) for index in range(4)],
        *[(index, OpKind.LOAD) for index in (0, 1, 9, 3)]),
    # Probe 3's flush follows the first access.
    "flush-after-access": round_of(
        *[(index, OpKind.FLUSH) for index in range(3)], (0, OpKind.LOAD),
        (3, OpKind.FLUSH), *[(index, OpKind.LOAD) for index in (1, 2, 3)]),
}


def replay_matches_generic(trace):
    program = ListProgram("tile", [TraceBlock(ops=trace,
                                              instructions_per_op=4.0)])
    assert observe(program, force_generic=False) == \
        observe(program, force_generic=True)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_flush_first_tile_gets_its_period(geometry):
    tile = FLUSH_FIRST * 12
    assert tile.period == len(FLUSH_FIRST)
    assert assert_plan_matches(tile, GEOMETRIES[geometry]).period == 13


flush_first_rounds = st.lists(st.integers(0, 9), min_size=1, max_size=6,
                              unique=True).flatmap(
    lambda flushed: st.tuples(st.just(flushed), st.lists(
        st.tuples(st.sampled_from(flushed), st.sampled_from((0, 8, 40)),
                  st.booleans()),
        max_size=24)))


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=40, deadline=None)
@given(round_spec=flush_first_rounds)
def test_round_profile_equals_reference(geometry, round_spec):
    """Probes a page apart and 64 bytes apart, so rounds hit every
    level and evict within a round; ``assert_plan_matches`` checks the
    profile from an empty and from a full start state."""
    flushed, accesses = round_spec
    address = (lambda slot: 0x4000_0000 + (slot % 5) * 4096
               + (slot // 5) * LINE)
    tile = (Trace([address(slot) for slot in flushed], OpKind.FLUSH)
            + Trace.from_ops([(address(slot) + offset,
                               OpKind.STORE if store else OpKind.LOAD)
                              for slot, offset, store in accesses])) * 4
    plan = assert_plan_matches(tile, GEOMETRIES[geometry])
    assert plan.period == (0 if geometry == "split_lines" and any(
        offset == 40 for _, offset, _ in accesses) else len(tile) // 4)


def test_meltdown_tile_period_and_round_counts():
    tile = _flush_reload_tile(0x4000_0000, 4096, 83, 40)
    plan = assert_plan_matches(tile, GEOMETRIES["i7_920"])
    assert plan.period == 513
    replay_matches_generic(tile)
    # The 256 probes share one 8-way L1 set and one 8-way L2 set, and
    # sit two to a set in 128 LLC sets: every reload misses except the
    # leaked byte's, which the transient access left in the LLC.
    assert plan.round_counts == (256, 0, 0, 1, 256)
    assert plan.round_counts == reference_round_counts(
        tile, GEOMETRIES["i7_920"])


@pytest.mark.parametrize("name", sorted(NOT_FLUSH_FIRST))
def test_round_that_is_not_flush_first_gets_no_period(name):
    tile = NOT_FLUSH_FIRST[name] * 12
    assert tile.period
    for descriptors in GEOMETRIES.values():
        assert assert_plan_matches(tile, descriptors).period == 0
    replay_matches_generic(tile)


def test_split_lines_check_every_level():
    """Under 32-byte L1 lines, a load 32 bytes past a flushed probe is a
    line that round never flushed; 64-byte levels see the same line."""
    tile = (Trace([probe(0), probe(1)], OpKind.FLUSH)
            + Trace([probe(0) + 32, probe(1)])) * 20
    assert assert_plan_matches(tile, GEOMETRIES["split_lines"]).period == 0
    assert assert_plan_matches(tile, GEOMETRIES["i7_920"]).period == 4


@pytest.mark.parametrize("shape", ["sliced", "concatenated"])
def test_sliced_or_concatenated_tile_gets_no_period(shape):
    tile = FLUSH_FIRST * 12
    if shape == "sliced":
        trace = tile[len(FLUSH_FIRST):]
    else:
        trace = FLUSH_FIRST * 6 + FLUSH_FIRST * 6
    assert trace.period == 0
    assert assert_plan_matches(trace, GEOMETRIES["i7_920"]).period == 0
    replay_matches_generic(trace)
    assert _trace_plan(trace, GEOMETRIES["i7_920"]).round_counts is None


@pytest.mark.parametrize("flushes", [1, 3])
def test_all_flush_round_replays_like_generic(flushes):
    """A round of flushes alone is flush-first; its flush run spans
    every round boundary and several 50 us slices."""
    tile = round_of(*[(index, OpKind.FLUSH) for index in range(flushes)])
    tile = tile * (12_000 // flushes)
    assert assert_plan_matches(tile, GEOMETRIES["i7_920"]).period == flushes
    replay_matches_generic(tile)
    replay_matches_generic(FLUSH_FIRST * 2 + tile)


def test_tile_of_a_tile_keeps_the_round():
    assert ((FLUSH_FIRST * 2) * 3).period == len(FLUSH_FIRST)
