"""A small corpus of SPEC-like synthetic programs.

Eight programs with distinct, stable event mixes — compression,
pointer-chasing graph code, a compiler-like branchy mix, dense and
sparse numeric kernels, and so on.  Useful wherever a *population* of
distinguishable programs is needed:

* enrolling a signature database for the verification application
  (each program's per-instruction mix is its fingerprint);
* exercising classifiers and schedulers on more than two behaviours;
* generating varied monitoring traces in tests.

Rates are loosely modelled on published SPEC CPU characterizations
(branchy integer codes vs FP kernels vs memory-bound sweeps); what
matters here is that they are *distinct and internally consistent*, not
that they match any particular SPEC version's absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.workloads.base import Block, Program, RateBlock


@dataclass(frozen=True)
class CorpusProfile:
    """Event mix and shape of one corpus program."""

    name: str
    description: str
    rates: Dict[str, float]
    cpi: float
    default_instructions: float


CORPUS_PROFILES: Dict[str, CorpusProfile] = {
    profile.name: profile
    for profile in [
        CorpusProfile(
            name="bzip-like",
            description="block-sorting compression: byte loads, tables, "
                        "branchy inner loops",
            rates={"LOADS": 0.42, "STORES": 0.18, "BRANCHES": 0.22,
                   "BRANCH_MISSES": 0.018, "ARITH_MUL": 0.01,
                   "LLC_REFERENCES": 0.004, "LLC_MISSES": 0.001},
            cpi=1.15,
            default_instructions=8e7,
        ),
        CorpusProfile(
            name="mcf-like",
            description="network simplex: pointer chasing, cache hostile",
            rates={"LOADS": 0.38, "STORES": 0.09, "BRANCHES": 0.20,
                   "BRANCH_MISSES": 0.012, "ARITH_MUL": 0.005,
                   "LLC_REFERENCES": 0.045, "LLC_MISSES": 0.028},
            cpi=2.4,
            default_instructions=5e7,
        ),
        CorpusProfile(
            name="gcc-like",
            description="compiler: very branchy, moderate memory",
            rates={"LOADS": 0.30, "STORES": 0.16, "BRANCHES": 0.26,
                   "BRANCH_MISSES": 0.022, "ARITH_MUL": 0.008,
                   "LLC_REFERENCES": 0.009, "LLC_MISSES": 0.003},
            cpi=1.3,
            default_instructions=7e7,
        ),
        CorpusProfile(
            name="namd-like",
            description="molecular dynamics: dense FP, few branches",
            rates={"LOADS": 0.34, "STORES": 0.12, "BRANCHES": 0.05,
                   "BRANCH_MISSES": 0.001, "ARITH_MUL": 0.30,
                   "FP_OPS": 0.85, "LLC_REFERENCES": 0.002,
                   "LLC_MISSES": 0.0006},
            cpi=0.8,
            default_instructions=1.2e8,
        ),
        CorpusProfile(
            name="lbm-like",
            description="lattice Boltzmann: streaming FP, memory bound",
            rates={"LOADS": 0.40, "STORES": 0.28, "BRANCHES": 0.03,
                   "BRANCH_MISSES": 0.0005, "ARITH_MUL": 0.18,
                   "FP_OPS": 0.55, "LLC_REFERENCES": 0.035,
                   "LLC_MISSES": 0.022},
            cpi=1.9,
            default_instructions=6e7,
        ),
        CorpusProfile(
            name="perl-like",
            description="interpreter: dispatch branches, hash lookups",
            rates={"LOADS": 0.36, "STORES": 0.20, "BRANCHES": 0.24,
                   "BRANCH_MISSES": 0.015, "ARITH_MUL": 0.012,
                   "LLC_REFERENCES": 0.006, "LLC_MISSES": 0.0015},
            cpi=1.25,
            default_instructions=7e7,
        ),
        CorpusProfile(
            name="sjeng-like",
            description="game tree search: branches + bit tricks",
            rates={"LOADS": 0.26, "STORES": 0.10, "BRANCHES": 0.23,
                   "BRANCH_MISSES": 0.028, "ARITH_MUL": 0.02,
                   "LLC_REFERENCES": 0.003, "LLC_MISSES": 0.0008},
            cpi=1.1,
            default_instructions=9e7,
        ),
        CorpusProfile(
            name="libquantum-like",
            description="quantum simulation: regular sweeps, wide loads",
            rates={"LOADS": 0.45, "STORES": 0.22, "BRANCHES": 0.08,
                   "BRANCH_MISSES": 0.001, "ARITH_MUL": 0.10,
                   "FP_OPS": 0.20, "LLC_REFERENCES": 0.028,
                   "LLC_MISSES": 0.018},
            cpi=1.6,
            default_instructions=8e7,
        ),
    ]
}


class CorpusWorkload(Program):
    """One corpus program, optionally scaled in length."""

    def __init__(self, profile_name: str,
                 instructions: float = 0.0,
                 chunk_instructions: float = 5e6) -> None:
        try:
            profile = CORPUS_PROFILES[profile_name]
        except KeyError:
            known = ", ".join(sorted(CORPUS_PROFILES))
            raise WorkloadError(
                f"unknown corpus program {profile_name!r} (known: {known})"
            ) from None
        self.profile = profile
        self.name = profile.name
        self.instructions = (instructions if instructions > 0
                             else profile.default_instructions)
        self.chunk_instructions = chunk_instructions
        # Chunk plan computed once: blocks() stamps a fresh RateBlock
        # per chunk each run (the cursor consumes instruction counts in
        # place, so the block objects themselves cannot be shared), but
        # the sizes never change between trials.
        sizes: List[float] = []
        remaining = self.instructions
        while remaining > 0:
            take = min(remaining, self.chunk_instructions)
            sizes.append(take)
            remaining -= take
        self._chunk_sizes: Tuple[float, ...] = tuple(sizes)

    @property
    def metadata(self) -> Dict[str, float]:
        return {"instructions": self.instructions,
                "cpi_hint": self.profile.cpi}

    def blocks(self) -> Iterator[Block]:
        profile = self.profile
        # Execution never mutates a block's rates (only the instruction
        # count), so every chunk can alias the profile's dict instead of
        # copying it — long corpus runs yield thousands of chunks.
        rates = profile.rates
        for take in self._chunk_sizes:
            yield RateBlock(instructions=take,
                            rates=rates,
                            cpi=profile.cpi,
                            label=profile.name)


def corpus_programs(instructions: float = 0.0) -> List[CorpusWorkload]:
    """Instantiate the whole corpus (optionally length-normalized)."""
    return [CorpusWorkload(name, instructions=instructions)
            for name in sorted(CORPUS_PROFILES)]
