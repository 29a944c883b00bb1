"""Trace-plan lifetime: a compiled plan lives exactly as long as its ops.

Every case uses plain, non-cyclic op lists and drops them with an
explicit ``del``, and runs with the cyclic collector off, so what it
checks is reference counting alone, never GC timing.
"""

import gc

import pytest

from repro.hw import core as core_module
from repro.hw.core import ExecStop, _trace_plan
from repro.hw.machine import Machine
from repro.hw.pmu import RDPMC_FIXED_FLAG
from repro.hw.presets import i7_920, xeon_8259cl
from repro.workloads.base import (
    BlockCursor,
    ListProgram,
    MemOp,
    OpKind,
    TraceBlock,
)
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


def fresh_ops(base, count=64):
    return [MemOp(base + index * LINE, OpKind.LOAD) for index in range(count)]


def holds(plan):
    return any(cached is plan for cached in core_module._TRACE_PLANS.values())


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
    def test_plan_of_dropped_list_goes_at_next_compile(self, descriptors):
        ops = fresh_ops(0x1000_0000)
        plan = _trace_plan(ops, descriptors)
        assert holds(plan)
        del ops
        # Nothing has compiled since: the plan is still cached.
        assert holds(plan)
        other = fresh_ops(0x2000_0000)
        _trace_plan(other, descriptors)
        assert not holds(plan)

    def test_plan_of_referenced_tuple_survives(self, descriptors):
        ops = tuple(fresh_ops(0x3000_0000))
        plan = _trace_plan(ops, descriptors)
        for index in range(100):
            scratch = fresh_ops(0x4000_0000 + index * 0x10_0000)
            _trace_plan(scratch, descriptors)
            del scratch
        assert _trace_plan(ops, descriptors) is plan

    def test_plan_of_list_under_two_geometries_goes(self, descriptors):
        # Two plan slots hold the list; neither alone keeps it live.
        other_geometry = Machine(xeon_8259cl()).cache._descriptors
        ops = fresh_ops(0x5000_0000)
        plans = (_trace_plan(ops, descriptors),
                 _trace_plan(ops, other_geometry))
        assert plans[0] is not plans[1]
        del ops
        _trace_plan(fresh_ops(0x6000_0000), descriptors)
        assert not any(holds(plan) for plan in plans)

    def test_fresh_streamers_leave_only_live_plans(self):
        """The smp_migrate shape: 100 fresh 20k-op strided lists, each
        replayed once.  Afterwards the cache holds the plans it held
        before plus only the last streamer's, which goes at the next
        compile: retention is bounded without a plan-count limit."""
        machine = Machine(i7_920())
        # Held by identity, so no plan compiled below can pass for one
        # of these even if a swept list's id is reused.
        before = list(core_module._TRACE_PLANS.values())
        for index in range(100):
            streamer = StridedMemoryWorkload(
                STREAMER_BUFFER_BYTES, 20_000, name=f"streamer{index}",
                address_base=(index % 3 + 1) << 30)
            replay(machine, streamer)
            del streamer
        new = [plan for plan in core_module._TRACE_PLANS.values()
               if not any(plan is old for old in before)]
        assert len(new) == 1
        assert len(new[0].ops) == 20_000

    def test_replay_after_sweep_matches_generic(self, descriptors):
        for index in range(8):
            dropped = fresh_ops(0x7000_0000 + index * 0x1_0000, 256)
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
        ops *= 4
        program = ListProgram("swept", [TraceBlock(
            ops=ops, instructions_per_op=3.0, event_scale=2.0)])
        batch = observe(program, force_generic=False)
        # The batch path ran: it compiled a plan for this list.
        assert any(key[0] == id(ops) for key in core_module._TRACE_PLANS)
        assert batch == observe(program, force_generic=True)
