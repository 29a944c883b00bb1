"""Workload programs: LINPACK, matmul, dgemm, synthetic generators."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import RateBlock, SyscallBlock, TraceBlock
from repro.workloads.dgemm import MklDgemm
from repro.workloads.linpack import FLOPS_PER_INSTRUCTION, LinpackWorkload
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import (
    PointerChaseWorkload,
    StridedMemoryWorkload,
    UniformComputeWorkload,
)


class TestLinpack:
    def test_flop_count_formula(self):
        program = LinpackWorkload(1000)
        n = 1000.0
        assert program.total_flops == pytest.approx(2 / 3 * n**3 + 2 * n**2)

    def test_phase_structure(self):
        blocks = list(LinpackWorkload(500).blocks())
        labels = [getattr(block, "label", "") for block in blocks]
        assert labels[0] == "init"
        assert labels[1] == "setup"
        assert "solve-start" in labels
        assert "solve-end" in labels
        assert any(label.startswith("solve-compute") for label in labels)

    def test_init_phase_is_kernel_privilege(self):
        first = next(LinpackWorkload(500).blocks())
        assert isinstance(first, RateBlock)
        assert first.privilege == "kernel"

    def test_solve_instructions_match_flops(self):
        program = LinpackWorkload(2000)
        expected = program.total_flops / FLOPS_PER_INSTRUCTION
        assert program.metadata["solve_instructions"] == pytest.approx(expected)

    def test_timing_markers_are_syscalls(self):
        blocks = list(LinpackWorkload(500).blocks())
        markers = [block for block in blocks
                   if isinstance(block, SyscallBlock)]
        assert len(markers) == 2

    def test_too_small_problem_rejected(self):
        with pytest.raises(WorkloadError):
            LinpackWorkload(5)


class TestMatmul:
    def test_instruction_count(self):
        program = TripleLoopMatmul(100)
        assert program.instructions == pytest.approx(100**3 * 5.0)

    def test_flops(self):
        assert TripleLoopMatmul(100).total_flops == pytest.approx(2e6)

    def test_blocks_sum_to_total(self):
        program = TripleLoopMatmul(256)
        total = sum(block.instructions for block in program.blocks())
        assert total == pytest.approx(program.instructions)

    def test_store_rate_is_per_iteration(self):
        """Naive code stores the accumulator every iteration — the
        basis of Fig. 9's store-count comparison."""
        block = next(TripleLoopMatmul(100).blocks())
        assert block.rates["STORES"] == pytest.approx(1.0 / 5.0)

    def test_metadata_has_cpi_hint(self):
        assert TripleLoopMatmul(64).metadata["cpi_hint"] == 1.0

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            TripleLoopMatmul(1)


class TestDgemm:
    def test_fewer_instructions_than_triple_loop(self):
        n = 512
        assert MklDgemm(n).instructions < TripleLoopMatmul(n).instructions / 10

    def test_same_flops_as_triple_loop(self):
        n = 512
        assert MklDgemm(n).total_flops == pytest.approx(
            TripleLoopMatmul(n).total_flops
        )

    def test_requires_modern_kernel(self):
        assert MklDgemm(64).metadata["min_kernel_major"] == 3.0

    def test_blocks_sum_to_total(self):
        program = MklDgemm(256)
        total = sum(block.instructions for block in program.blocks())
        assert total == pytest.approx(program.instructions)


class TestSynthetic:
    def test_uniform_chunks_sum(self):
        program = UniformComputeWorkload(1.2e7, chunk_instructions=5e6)
        blocks = list(program.blocks())
        assert len(blocks) == 3
        assert sum(b.instructions for b in blocks) == pytest.approx(1.2e7)

    def test_uniform_invalid(self):
        with pytest.raises(WorkloadError):
            UniformComputeWorkload(0)

    def test_strided_addresses(self):
        program = StridedMemoryWorkload(buffer_bytes=1024, accesses=8,
                                        stride_bytes=128)
        block = next(program.blocks())
        assert isinstance(block, TraceBlock)
        addresses = block.ops.addresses.tolist()
        assert addresses == [0, 128, 256, 384, 512, 640, 768, 896]

    def test_strided_wraps_buffer(self):
        program = StridedMemoryWorkload(buffer_bytes=256, accesses=5,
                                        stride_bytes=128)
        addresses = next(program.blocks()).ops.addresses.tolist()
        assert max(addresses) < 256

    def test_pointer_chase_stays_in_working_set(self):
        program = PointerChaseWorkload(working_set_bytes=4096, accesses=100,
                                       seed=1)
        addresses = next(program.blocks()).ops.addresses.tolist()
        assert all(0 <= address < 4096 for address in addresses)

    def test_pointer_chase_deterministic_by_seed(self):
        def addrs(seed):
            program = PointerChaseWorkload(4096, 50, seed=seed)
            return next(program.blocks()).ops.addresses.tolist()

        assert addrs(3) == addrs(3)
        assert addrs(3) != addrs(4)
