"""Simple synthetic workloads used by tests and ablation benchmarks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import Block, Program, RateBlock, Trace, TraceBlock

DEFAULT_COMPUTE_RATES: Dict[str, float] = {
    "LOADS": 0.30,
    "STORES": 0.12,
    "BRANCHES": 0.15,
    "BRANCH_MISSES": 0.002,
    "ARITH_MUL": 0.05,
    "FP_OPS": 0.10,
    "LLC_REFERENCES": 0.001,
    "LLC_MISSES": 0.0002,
}


class UniformComputeWorkload(Program):
    """A single homogeneous compute phase.

    Handy as a minimal, fully-predictable victim: every hardware event
    count is ``rate × instructions`` by construction.
    """

    def __init__(self, instructions: float,
                 rates: Optional[Dict[str, float]] = None,
                 cpi: float = 1.0, name: str = "uniform-compute",
                 chunk_instructions: float = 5e6) -> None:
        if instructions <= 0:
            raise WorkloadError("instruction count must be positive")
        self.name = name
        self.instructions = float(instructions)
        self.rates = dict(DEFAULT_COMPUTE_RATES if rates is None else rates)
        self.cpi = cpi
        self.chunk_instructions = chunk_instructions

    def blocks(self) -> Iterator[Block]:
        remaining = self.instructions
        while remaining > 0:
            take = min(remaining, self.chunk_instructions)
            yield RateBlock(instructions=take, rates=dict(self.rates),
                            cpi=self.cpi, label="compute")
            remaining -= take

    @property
    def metadata(self) -> Dict[str, float]:
        return {"instructions": self.instructions}


#: Memory-heavy phase profile: load/LLC rates well above the compute
#: profile, multiplies well below — the contrast the phase detector
#: (and the adaptive controller's signal tracker) keys on.
MEMORY_PHASE_RATES: Dict[str, float] = {
    "LOADS": 0.55,
    "STORES": 0.20,
    "BRANCHES": 0.08,
    "BRANCH_MISSES": 0.004,
    "ARITH_MUL": 0.005,
    "FP_OPS": 0.01,
    "LLC_REFERENCES": 0.02,
    "LLC_MISSES": 0.008,
}


class PhaseShiftWorkload(Program):
    """Alternating compute-heavy / memory-heavy phases.

    The canonical victim for phase-detection experiments: event rates
    switch abruptly at each phase boundary, so a monitor sampling fast
    enough sees clean steps while a slow one blurs or misses the short
    phases entirely (the paper's 100 µs-vs-10 ms argument, Fig. 4).

    ``phases`` is a list of ``(instructions, rates)`` pairs executed in
    order; :meth:`alternating` builds the standard compute/memory
    square wave.
    """

    def __init__(self, phases: Sequence[Tuple[float, Dict[str, float]]],
                 cpi: float = 1.0, name: str = "phase-shift",
                 chunk_instructions: float = 2e6) -> None:
        if not phases:
            raise WorkloadError("phase list must not be empty")
        for instructions, _ in phases:
            if instructions <= 0:
                raise WorkloadError("phase instruction counts must be positive")
        self.name = name
        self.phases: List[Tuple[float, Dict[str, float]]] = [
            (float(instructions), dict(rates)) for instructions, rates in phases
        ]
        self.cpi = cpi
        self.chunk_instructions = chunk_instructions

    @classmethod
    def alternating(cls, phase_instructions: Sequence[float],
                    cpi: float = 1.0,
                    name: str = "phase-shift") -> "PhaseShiftWorkload":
        """Square wave: even phases compute-heavy, odd phases memory-heavy."""
        phases = [
            (instructions,
             DEFAULT_COMPUTE_RATES if index % 2 == 0 else MEMORY_PHASE_RATES)
            for index, instructions in enumerate(phase_instructions)
        ]
        return cls(phases, cpi=cpi, name=name)

    def blocks(self) -> Iterator[Block]:
        for index, (instructions, rates) in enumerate(self.phases):
            remaining = instructions
            while remaining > 0:
                take = min(remaining, self.chunk_instructions)
                yield RateBlock(instructions=take, rates=dict(rates),
                                cpi=self.cpi, label=f"phase-{index}")
                remaining -= take

    @property
    def metadata(self) -> Dict[str, float]:
        return {
            "instructions": sum(
                instructions for instructions, _ in self.phases),
            "phases": float(len(self.phases)),
            "transitions": float(len(self.phases) - 1),
        }


class StridedMemoryWorkload(Program):
    """Sequential strided sweeps over a buffer, via the cache model.

    With ``buffer_bytes`` far above LLC capacity every sweep access
    misses (streaming); below L1 capacity everything hits after warmup.
    """

    def __init__(self, buffer_bytes: int, accesses: int, stride_bytes: int = 64,
                 instructions_per_access: float = 10.0,
                 name: str = "strided-memory",
                 address_base: int = 0) -> None:
        if buffer_bytes <= 0 or accesses <= 0 or stride_bytes <= 0:
            raise WorkloadError("buffer, accesses, and stride must be positive")
        self.name = name
        self.buffer_bytes = buffer_bytes
        self.accesses = accesses
        self.stride_bytes = stride_bytes
        self.instructions_per_access = instructions_per_access
        # Distinct processes occupy distinct physical pages; give
        # co-running workloads distinct bases so they never share lines.
        self.address_base = address_base

    def blocks(self) -> Iterator[Block]:
        offsets = np.arange(self.accesses) * self.stride_bytes
        trace = Trace(self.address_base + offsets % self.buffer_bytes)
        yield TraceBlock(ops=trace,
                         instructions_per_op=self.instructions_per_access,
                         label="sweep")


class PointerChaseWorkload(Program):
    """Random-order loads over a working set (a pointer chase).

    The classic latency-bound pattern: no spatial locality, hit rate
    governed purely by working-set size vs cache capacity.
    """

    def __init__(self, working_set_bytes: int, accesses: int, seed: int = 0,
                 instructions_per_access: float = 4.0,
                 name: str = "pointer-chase",
                 address_base: int = 0) -> None:
        if working_set_bytes <= 0 or accesses <= 0:
            raise WorkloadError("working set and accesses must be positive")
        self.name = name
        self.working_set_bytes = working_set_bytes
        self.accesses = accesses
        self.seed = seed
        self.instructions_per_access = instructions_per_access
        self.address_base = address_base

    def blocks(self) -> Iterator[Block]:
        rng = np.random.default_rng(self.seed)
        lines = max(1, self.working_set_bytes // 64)
        indices = rng.integers(0, lines, size=self.accesses)
        yield TraceBlock(ops=Trace(self.address_base + indices * 64),
                         instructions_per_op=self.instructions_per_access,
                         label="chase")
