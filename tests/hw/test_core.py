"""Core execution: rate blocks, trace blocks, syscalls, budgets."""

import pytest

from repro.errors import SimulationError
from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import Core, ExecStop
from repro.hw.machine import Machine
from repro.hw.pmu import Pmu, RDPMC_FIXED_FLAG
from repro.hw.presets import i7_920
from repro.workloads.base import (
    BlockCursor,
    ListProgram,
    MemOp,
    OpKind,
    RateBlock,
    SyscallBlock,
    TraceBlock,
)

LINE = 64
GHZ = 1e9  # 1 GHz: 1 cycle == 1 ns, keeps arithmetic readable


def make_core():
    pmu = Pmu()
    pmu.enable_fixed(user=True, kernel=True)
    pmu.program_counter(0, "LOADS", user=True, kernel=True)
    pmu.program_counter(1, "LLC_MISSES", user=True, kernel=True)
    pmu.global_enable()
    cache = CacheHierarchy(
        [CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4)],
        memory_latency_cycles=100,
    )
    return Core(frequency_hz=GHZ, pmu=pmu, cache=cache)


def cursor_for(*blocks):
    return BlockCursor(ListProgram("test", list(blocks)))


class TestRateBlocks:
    def test_full_block_within_budget(self):
        core = make_core()
        cursor = cursor_for(RateBlock(instructions=1000, rates={"LOADS": 0.5}))
        result = core.execute(cursor, budget_ns=10_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert result.instructions == pytest.approx(1000)
        assert result.consumed_ns == 1000  # CPI 1 at 1 GHz
        assert core.pmu.rdpmc(0) == 500

    def test_partial_execution_resumes(self):
        core = make_core()
        cursor = cursor_for(RateBlock(instructions=1000, rates={}))
        first = core.execute(cursor, budget_ns=400)
        assert first.stop is ExecStop.BUDGET
        assert first.instructions == pytest.approx(400)
        second = core.execute(cursor, budget_ns=10_000)
        assert second.stop is ExecStop.PROGRAM_DONE
        assert second.instructions == pytest.approx(600)

    def test_cpi_scales_time(self):
        core = make_core()
        cursor = cursor_for(RateBlock(instructions=1000, cpi=2.0))
        result = core.execute(cursor, budget_ns=100_000)
        assert result.consumed_ns == 2000

    def test_instructions_retired_counted(self):
        core = make_core()
        cursor = cursor_for(RateBlock(instructions=123))
        core.execute(cursor, budget_ns=10_000)
        assert core.pmu.rdpmc(RDPMC_FIXED_FLAG | 0) == 123

    def test_kernel_privilege_blocks_use_os_counters(self):
        core = make_core()
        # Reprogram counter 0 as user-only.
        core.pmu.program_counter(0, "LOADS", user=True, kernel=False)
        cursor = cursor_for(
            RateBlock(instructions=100, rates={"LOADS": 1.0},
                      privilege="kernel")
        )
        core.execute(cursor, budget_ns=10_000)
        assert core.pmu.rdpmc(0) == 0

    def test_negative_budget_rejected(self):
        core = make_core()
        cursor = cursor_for(RateBlock(instructions=10))
        with pytest.raises(SimulationError):
            core.execute(cursor, budget_ns=-1)

    def test_multiple_blocks_in_one_slice(self):
        core = make_core()
        cursor = cursor_for(
            RateBlock(instructions=100),
            RateBlock(instructions=200),
        )
        result = core.execute(cursor, budget_ns=10_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert result.instructions == pytest.approx(300)


class TestTraceBlocks:
    def test_cold_trace_counts_misses(self):
        core = make_core()
        ops = [MemOp(i * LINE) for i in range(8)]
        cursor = cursor_for(TraceBlock(ops=ops, instructions_per_op=2))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert core.pmu.rdpmc(1) == 8      # every access missed the 4-line L1
        assert core.pmu.rdpmc(0) == 8      # one load per op (event_scale 1)

    def test_repeated_access_hits(self):
        core = make_core()
        ops = [MemOp(0), MemOp(0), MemOp(0)]
        cursor = cursor_for(TraceBlock(ops=ops))
        core.execute(cursor, budget_ns=1_000_000)
        assert core.pmu.rdpmc(1) == 1      # only the cold miss

    def test_event_scale_folds_loads(self):
        core = make_core()
        cursor = cursor_for(TraceBlock(ops=[MemOp(0)], event_scale=5.0))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert core.pmu.rdpmc(0) == 5      # 1 simulated + 4 folded loads
        assert core.pmu.rdpmc(1) == 1      # misses not scaled
        assert result.instructions == pytest.approx(5.0)

    def test_store_ops(self):
        core = make_core()
        core.pmu.program_counter(0, "STORES", user=True, kernel=True)
        cursor = cursor_for(TraceBlock(ops=[MemOp(0, OpKind.STORE)]))
        core.execute(cursor, budget_ns=1_000_000)
        assert core.pmu.rdpmc(0) == 1

    def test_flush_op_invalidates(self):
        core = make_core()
        ops = [MemOp(0), MemOp(0, OpKind.FLUSH), MemOp(0)]
        cursor = cursor_for(TraceBlock(ops=ops))
        core.execute(cursor, budget_ns=1_000_000)
        assert core.pmu.rdpmc(1) == 2      # cold miss + post-flush miss

    def test_trace_latency_charged(self):
        core = make_core()
        cursor = cursor_for(TraceBlock(ops=[MemOp(0)]))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.consumed_ns == 100   # memory latency at 1 GHz

    def test_trace_preemption_resumes_mid_block(self):
        core = make_core()
        ops = [MemOp(i * LINE) for i in range(10)]  # 100 ns each (miss)
        cursor = cursor_for(TraceBlock(ops=ops))
        first = core.execute(cursor, budget_ns=350)
        assert first.stop is ExecStop.BUDGET
        second = core.execute(cursor, budget_ns=1_000_000)
        assert second.stop is ExecStop.PROGRAM_DONE
        assert core.pmu.rdpmc(1) == 10     # nothing lost or double-counted

    def test_trace_overshoot_completes_inflight_op(self):
        """An op straddling the budget boundary completes (documented)."""
        core = make_core()
        cursor = cursor_for(TraceBlock(ops=[MemOp(0)]))
        result = core.execute(cursor, budget_ns=10)
        assert result.consumed_ns == 100
        assert result.stop is ExecStop.BUDGET


class TestTraceRouting:
    """``_run_trace`` has two executors: the batch path for slices that
    pass its checks, the generic per-op reference for everything else."""

    def _route(self, n_ops, **block_kwargs):
        core = Machine(i7_920()).core
        calls = []
        for name in ("_run_trace_batch", "_run_trace_generic"):
            original = getattr(core, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            setattr(core, name, spy)
        ops = tuple(MemOp(i * LINE) for i in range(n_ops))
        cursor = cursor_for(TraceBlock(ops=ops, **block_kwargs))
        result = core.execute(cursor, budget_ns=10_000_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        return calls

    def test_short_trace_takes_generic_path(self):
        assert self._route(63) == ["_run_trace_generic"]

    def test_fractional_increments_take_generic_path(self):
        assert self._route(64, instructions_per_op=2.5) == [
            "_run_trace_generic"]

    def test_integral_trace_at_batch_floor_takes_batch_path(self):
        assert self._route(64, instructions_per_op=2.0) == [
            "_run_trace_batch"]


class TestSyscallBlocks:
    def test_syscall_stops_execution(self):
        core = make_core()
        block = SyscallBlock("read")
        cursor = cursor_for(RateBlock(instructions=100), block,
                            RateBlock(instructions=50))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.stop is ExecStop.SYSCALL
        # ListProgram hands out copies of its prototypes, so compare by
        # content rather than identity.
        assert result.syscall.name == block.name
        assert result.instructions == pytest.approx(100)
        # Continuing runs the rest.
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert result.instructions == pytest.approx(50)

    def test_immediate_syscall(self):
        core = make_core()
        cursor = cursor_for(SyscallBlock("ioctl"))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.stop is ExecStop.SYSCALL
        assert result.consumed_ns == 0


class TestConversions:
    def test_cycles_ns_roundtrip(self):
        core = make_core()
        assert core.ns_to_cycles(core.cycles_to_ns(1234.0)) == pytest.approx(1234.0)

    def test_invalid_frequency(self):
        with pytest.raises(SimulationError):
            Core(frequency_hz=0, pmu=Pmu(),
                 cache=CacheHierarchy([CacheConfig("L1D", 4 * LINE, ways=2)]))
