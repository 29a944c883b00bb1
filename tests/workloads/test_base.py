"""Workload IR: block validation, cursor semantics, instrumentation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import (
    BlockCursor,
    BlockInserter,
    ListProgram,
    MemOp,
    OpKind,
    RateBlock,
    SyscallBlock,
    TraceBlock,
    user_probe,
    USER_PROBE,
)


class TestBlockValidation:
    def test_rate_block_negative_instructions(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=-1)

    def test_rate_block_zero_cpi(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, cpi=0)

    def test_rate_block_negative_rate(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, rates={"LOADS": -0.1})

    def test_rate_block_rejects_implicit_events(self):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1, rates={"INST_RETIRED": 1.0})

    def test_trace_block_negative_ipo(self):
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[], instructions_per_op=-1)

    def test_trace_block_zero_event_scale(self):
        with pytest.raises(WorkloadError):
            TraceBlock(ops=[], event_scale=0)

    def test_user_probe_uses_sentinel_name(self):
        block = user_probe(lambda k, t: None)
        assert block.name == USER_PROBE


class TestListProgram:
    def test_blocks_are_fresh_copies(self):
        program = ListProgram("p", [RateBlock(instructions=100)])
        first = next(program.blocks())
        second = next(program.blocks())
        assert first is not second
        first.instructions = 0
        assert second.instructions == 100

    def test_metadata_copied(self):
        program = ListProgram("p", [], metadata={"x": 1.0})
        metadata = program.metadata
        metadata["x"] = 2.0
        assert program.metadata["x"] == 1.0


class TestBlockCursor:
    def test_peek_and_advance(self):
        program = ListProgram("p", [
            RateBlock(instructions=10, label="a"),
            RateBlock(instructions=20, label="b"),
        ])
        cursor = BlockCursor(program)
        assert cursor.peek().label == "a"
        cursor.advance()
        assert cursor.peek().label == "b"
        cursor.advance()
        assert cursor.peek() is None
        assert cursor.finished

    def test_consume_instructions_partial(self):
        cursor = BlockCursor(ListProgram("p", [RateBlock(instructions=10)]))
        cursor.consume_instructions(4)
        assert cursor.peek().instructions == pytest.approx(6)
        cursor.consume_instructions(6)
        assert cursor.peek() is None

    def test_consume_too_many_raises(self):
        cursor = BlockCursor(ListProgram("p", [RateBlock(instructions=10)]))
        with pytest.raises(WorkloadError):
            cursor.consume_instructions(11)

    def test_consume_ops(self):
        ops = [MemOp(0), MemOp(64), MemOp(128)]
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=ops)]))
        cursor.consume_ops(2)
        assert cursor.op_index == 2
        cursor.consume_ops(1)
        assert cursor.peek() is None

    def test_consume_ops_overrun_raises(self):
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=[MemOp(0)])]))
        with pytest.raises(WorkloadError):
            cursor.consume_ops(2)

    def test_wrong_block_kind_raises(self):
        cursor = BlockCursor(ListProgram("p", [TraceBlock(ops=[MemOp(0)])]))
        with pytest.raises(WorkloadError):
            cursor.consume_instructions(1)


def _instruction_count(blocks):
    total = 0.0
    for block in blocks:
        if isinstance(block, RateBlock):
            total += block.instructions
        elif isinstance(block, TraceBlock):
            total += len(block.ops) * (block.instructions_per_op + 1)
    return total


class TestInstrumentation:
    def test_points_inserted_at_interval(self):
        base = ListProgram("p", [RateBlock(instructions=1000)])
        markers = []
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read", label="point")],
            every_instructions=250,
        )
        blocks = list(base.instrumented(inserter).blocks())
        points = [b for b in blocks if isinstance(b, SyscallBlock)]
        assert len(points) == 4  # 1000 / 250

    def test_original_instructions_preserved(self):
        base = ListProgram("p", [
            RateBlock(instructions=700),
            RateBlock(instructions=300),
        ])
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read")],
            every_instructions=220,
        )
        blocks = list(base.instrumented(inserter).blocks())
        rate_total = sum(b.instructions for b in blocks
                         if isinstance(b, RateBlock))
        assert rate_total == pytest.approx(1000)

    def test_prologue_and_epilogue(self):
        base = ListProgram("p", [RateBlock(instructions=100)])
        inserter = BlockInserter(
            factory=lambda: [],
            every_instructions=1e9,
            prologue=lambda: [SyscallBlock("start", label="pro")],
            epilogue=lambda: [SyscallBlock("stop", label="epi")],
        )
        blocks = list(base.instrumented(inserter).blocks())
        assert isinstance(blocks[0], SyscallBlock) and blocks[0].label == "pro"
        assert isinstance(blocks[-1], SyscallBlock) and blocks[-1].label == "epi"

    def test_trace_blocks_split_for_insertion(self):
        ops = [MemOp(i * 64) for i in range(100)]
        base = ListProgram("p", [TraceBlock(ops=ops, instructions_per_op=9)])
        inserter = BlockInserter(
            factory=lambda: [SyscallBlock("read")],
            every_instructions=250,  # 25 ops per interval
        )
        blocks = list(base.instrumented(inserter).blocks())
        trace_ops = sum(len(b.ops) for b in blocks
                        if isinstance(b, TraceBlock))
        points = sum(1 for b in blocks if isinstance(b, SyscallBlock))
        assert trace_ops == 100
        assert points == 4

    def test_invalid_interval_rejected(self):
        with pytest.raises(WorkloadError):
            BlockInserter(factory=lambda: [], every_instructions=0)

    def test_instrumented_metadata_proxied(self):
        base = ListProgram("p", [RateBlock(instructions=10)],
                           metadata={"instructions": 10.0})
        inserter = BlockInserter(factory=lambda: [], every_instructions=5)
        assert base.instrumented(inserter).metadata == {"instructions": 10.0}
