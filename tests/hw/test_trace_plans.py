"""Trace-plan lifetime: a compiled plan lives on its trace, and only there.

Every case runs with the cyclic collector off and drops traces with an
explicit ``del``, so what it checks is reference counting alone, never
GC timing: a plan is reachable exactly while its trace is.
"""

import gc
import weakref

import pytest

from repro.hw.core import ExecStop, _trace_plan
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
from repro.workloads.meltdown import MeltdownAttack
from repro.workloads.synthetic import StridedMemoryWorkload

LINE = 64
STREAMER_BUFFER_BYTES = 64 << 20


@pytest.fixture(autouse=True)
def refcounting_only():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture
def descriptors():
    return Machine(i7_920()).cache._descriptors


def fresh_trace(base, count=64):
    return Trace(range(base, base + count * LINE, LINE))


def replay(machine, program):
    cursor = BlockCursor(program)
    while machine.core.execute(cursor, 10_000_000).stop \
            is not ExecStop.PROGRAM_DONE:
        pass


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


class TestPlanLifetime:
    def test_dropped_fresh_trace_frees_its_plan(self, descriptors):
        trace = fresh_trace(0x1000_0000)
        plan = weakref.ref(_trace_plan(trace, descriptors))
        # The trace holds its plan: a second lookup finds the same one.
        assert _trace_plan(trace, descriptors) is plan()
        del trace
        assert plan() is None

    def test_plan_of_referenced_tuple_survives(self):
        """A referenced trace keeps its plan: each of 100 trials replays
        the attack's memoized Flush+Reload tile on a fresh machine, and
        the tile compiles once and keeps that one plan object."""
        first = None
        for _ in range(100):
            attack = MeltdownAttack(secret="A", rounds_per_char=4)
            (tile,) = [block for block in attack.blocks()
                       if isinstance(block, TraceBlock)
                       and block.label.startswith("flush-reload")]
            replay(Machine(i7_920()), ListProgram("attack", [tile]))
            (plan,) = tile.ops.plans.values()
            first = first or plan
            assert plan is first

    def test_plan_of_list_under_two_geometries_goes(self, descriptors):
        """One trace under two geometries carries two plans, and both
        go with the trace."""
        other_geometry = Machine(xeon_8259cl()).cache._descriptors
        trace = fresh_trace(0x5000_0000)
        plans = (_trace_plan(trace, descriptors),
                 _trace_plan(trace, other_geometry))
        assert plans[0] is not plans[1]
        assert len(trace.plans) == 2
        assert _trace_plan(trace, descriptors) is plans[0]
        assert _trace_plan(trace, other_geometry) is plans[1]
        refs = [weakref.ref(plan) for plan in plans]
        del plans, trace
        assert [ref() for ref in refs] == [None, None]

    def test_fresh_streamers_leave_only_live_plans(self):
        """The smp_migrate shape: 100 fresh 20k-op strided traces, each
        replayed once and dropped.  Each compiles one plan, and none
        outlives its streamer: retention is zero without a plan-count
        limit."""
        machine = Machine(i7_920())
        refs = []
        for index in range(100):
            streamer = StridedMemoryWorkload(
                STREAMER_BUFFER_BYTES, 20_000, name=f"streamer{index}",
                address_base=(index % 3 + 1) << 30)
            (block,) = streamer.blocks()
            replay(machine, ListProgram(streamer.name, [block]))
            assert len(block.ops) == 20_000
            refs.extend(weakref.ref(plan) for plan in block.ops.plans.values())
            del streamer, block
        assert len(refs) == 100
        assert not any(ref() is not None for ref in refs)

    def test_replay_after_sweep_matches_generic(self, descriptors):
        for index in range(8):
            dropped = fresh_trace(0x7000_0000 + index * 0x1_0000, 256)
            _trace_plan(dropped, descriptors)
            del dropped
        ops = []
        for index in range(96):
            ops.append(MemOp(0x8000_0000 + (index % 24) * LINE,
                             OpKind.STORE if index % 5 == 0 else OpKind.LOAD))
        ops += [MemOp(0x9000_0000 + index * 4096, OpKind.FLUSH)
                for index in range(32)]
        ops += [MemOp(0x9000_0000 + index * 4096, OpKind.LOAD)
                for index in range(32)]
        trace = Trace.from_ops(ops * 4)
        program = ListProgram("swept", [TraceBlock(
            ops=trace, instructions_per_op=3.0, event_scale=2.0)])
        batch = observe(program, force_generic=False)
        # The batch path ran: it compiled a plan for this trace.
        assert len(trace.plans) == 1
        assert batch == observe(program, force_generic=True)
