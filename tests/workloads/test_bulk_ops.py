"""Column-built traces equal the per-op construction they replace.

Each reference below builds its trace one ``MemOp(...)`` at a time, the
way the generators did before traces became columns, and converts it
with :meth:`Trace.from_ops`; every builder's columns must equal it.
"""

from typing import List

import numpy as np
import pytest

from repro.workloads.base import KIND_CODES, MemOp, OpKind, Trace, TraceBlock
from repro.workloads.docker_images import DOCKER_IMAGES, ContainerWorkload
from repro.workloads.meltdown import (
    _PROBE_LINES,
    _VICTIM_REUSE_OPS,
    _VICTIM_STREAM_OPS,
    _flush_reload_round,
    _flush_reload_tile,
    _victim_scan_trace,
)
from repro.workloads.synthetic import PointerChaseWorkload, StridedMemoryWorkload

LINE = 64


def assert_same_ops(trace, expected):
    reference = Trace.from_ops(expected)
    assert trace.addresses.dtype == np.uint64
    assert trace.kinds.dtype == np.uint8
    assert trace.addresses.tolist() == reference.addresses.tolist()
    assert trace.kinds.tolist() == reference.kinds.tolist()
    assert trace == reference


def trace_ops(program) -> List[Trace]:
    return [block.ops for block in program.blocks()
            if isinstance(block, TraceBlock)]


def test_trace_of_one_kind_matches_per_op():
    trace = Trace(range(0, 4 * LINE, LINE), OpKind.FLUSH)
    assert_same_ops(trace, [MemOp(index * LINE, OpKind.FLUSH)
                            for index in range(4)])
    assert len(Trace([])) == 0
    assert Trace([7]).kinds.tolist() == [KIND_CODES[OpKind.LOAD]]
    # Codes follow OpKind order.
    assert [KIND_CODES[kind] for kind in OpKind] == [0, 1, 2]


@pytest.mark.parametrize("buffer_bytes, accesses, stride, base", [
    (64 << 20, 2_000, 64, 1 << 30),
    # The sweep wraps at address % buffer_bytes, mid-stride.
    (1000, 300, 48, 0x1000),
    (4096, 50, 4096, 0),
])
def test_strided_sweep_matches_per_op(buffer_bytes, accesses, stride, base):
    expected, address = [], 0
    for _ in range(accesses):
        expected.append(MemOp(base + address % buffer_bytes, OpKind.LOAD))
        address += stride
    workload = StridedMemoryWorkload(buffer_bytes, accesses, stride,
                                     address_base=base)
    (ops,) = trace_ops(workload)
    assert_same_ops(ops, expected)


def test_pointer_chase_matches_per_op():
    workload = PointerChaseWorkload(1 << 20, 3_000, seed=5,
                                    address_base=0x3000_0000)
    indices = np.random.default_rng(5).integers(0, (1 << 20) // 64,
                                                size=3_000)
    expected = [MemOp(0x3000_0000 + int(index) * 64, OpKind.LOAD)
                for index in indices]
    (ops,) = trace_ops(workload)
    assert_same_ops(ops, expected)


@pytest.mark.parametrize("index", [0, 1, 2, 7])
def test_victim_scan_matches_per_op(index):
    stream_base = 0x1000_0000
    expected = []
    stream_start = stream_base + index * _VICTIM_STREAM_OPS * LINE
    for op_index in range(_VICTIM_STREAM_OPS):
        expected.append(MemOp(stream_start + op_index * LINE, OpKind.LOAD))
    if index >= 2:
        reuse_start = stream_base + (index - 2) * _VICTIM_STREAM_OPS * LINE
        for op_index in range(_VICTIM_REUSE_OPS):
            expected.append(MemOp(reuse_start + op_index * LINE, OpKind.LOAD))
    trace = _victim_scan_trace(stream_base, index)
    assert _victim_scan_trace(stream_base, index) is trace  # memoized
    assert_same_ops(trace, expected)


@pytest.mark.parametrize("stride", [4096, LINE])
def test_flush_reload_round_matches_per_op(stride):
    probe_base, byte_value = 0x4000_0000, ord("q")
    expected = [MemOp(probe_base + line * stride, OpKind.FLUSH)
                for line in range(_PROBE_LINES)]
    expected.append(MemOp(probe_base + byte_value * stride, OpKind.LOAD))
    expected += [MemOp(probe_base + line * stride, OpKind.LOAD)
                 for line in range(_PROBE_LINES)]
    trace = _flush_reload_round(probe_base, stride, byte_value)
    assert _flush_reload_round(probe_base, stride, byte_value) is trace
    assert_same_ops(trace, expected)
    tile = _flush_reload_tile(probe_base, stride, byte_value, 3)
    assert _flush_reload_tile(probe_base, stride, byte_value, 3) is tile
    assert_same_ops(tile, expected * 3)


def reference_container_ops(profile, iterations, seed, address_base):
    """The per-op ``ContainerWorkload`` trace loop."""
    rng = np.random.default_rng(seed)
    hot_lines = max(1, profile.hot_set_bytes // LINE)
    stream_base = address_base + profile.hot_set_bytes + (1 << 24)
    stream_cursor = 0
    previous_stream: List[int] = []
    history: List[int] = []
    traces = []
    for _ in range(iterations):
        ops = []
        for index in rng.integers(0, hot_lines, size=profile.hot_ops):
            ops.append(MemOp(address_base + int(index) * LINE, OpKind.LOAD))
        stream_addresses = []
        for _ in range(profile.stream_ops):
            address = stream_base + stream_cursor * LINE
            stream_cursor += 1
            stream_addresses.append(address)
            ops.append(MemOp(address, OpKind.LOAD))
        if previous_stream and profile.reuse_ops:
            step = max(1, len(previous_stream) // profile.reuse_ops)
            for address in previous_stream[::step][:profile.reuse_ops]:
                ops.append(MemOp(address, OpKind.LOAD))
        if profile.far_reuse_ops and \
                len(history) > profile.far_reuse_distance_lines:
            window_end = len(history) - profile.far_reuse_distance_lines
            for address in history[max(0, window_end - profile.far_reuse_ops):
                                   window_end]:
                ops.append(MemOp(address, OpKind.LOAD))
        history.extend(stream_addresses)
        previous_stream = stream_addresses
        traces.append(ops)
    return traces


@pytest.mark.parametrize("image, iterations", [("mysql", 3), ("nginx", 12)])
def test_container_trace_matches_per_op(image, iterations):
    profile = DOCKER_IMAGES[image]
    workload = ContainerWorkload(profile, iterations=iterations, seed=3)
    traces = trace_ops(workload)
    expected = reference_container_ops(profile, iterations, 3,
                                       workload.address_base)
    assert len(traces) == len(expected) == iterations
    if profile.far_reuse_ops:  # the last iteration revisits far lines
        assert len(traces[-1]) > (profile.hot_ops + profile.stream_ops
                                  + profile.reuse_ops)
    for ops, reference in zip(traces, expected):
        assert_same_ops(ops, reference)
