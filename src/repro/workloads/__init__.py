"""Synthetic workloads.

Each workload reproduces the *behaviourally relevant* structure of a
program the paper measured: instruction volume, event mix, phase
shape, and (for cache studies) the memory access pattern.  See
DESIGN.md §2 for the substitution rationale.
"""

from repro.workloads.base import (
    Block,
    RateBlock,
    TraceBlock,
    SyscallBlock,
    MemOp,
    Trace,
    OpKind,
    BlockCursor,
    Program,
    ListProgram,
)
from repro.workloads.linpack import LinpackWorkload
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.dgemm import MklDgemm
from repro.workloads.meltdown import SecretPrinter, MeltdownAttack
from repro.workloads.docker_images import DOCKER_IMAGES, DockerImageProfile
from repro.workloads.docker import DockerEngine, DockerContainer
from repro.workloads.synthetic import (
    UniformComputeWorkload,
    StridedMemoryWorkload,
    PointerChaseWorkload,
)
from repro.workloads.corpus import (
    CORPUS_PROFILES,
    CorpusProfile,
    CorpusWorkload,
    corpus_programs,
)

__all__ = [
    "Block",
    "RateBlock",
    "TraceBlock",
    "SyscallBlock",
    "MemOp",
    "Trace",
    "OpKind",
    "BlockCursor",
    "Program",
    "ListProgram",
    "LinpackWorkload",
    "TripleLoopMatmul",
    "MklDgemm",
    "SecretPrinter",
    "MeltdownAttack",
    "DOCKER_IMAGES",
    "DockerImageProfile",
    "DockerEngine",
    "DockerContainer",
    "UniformComputeWorkload",
    "StridedMemoryWorkload",
    "PointerChaseWorkload",
    "CORPUS_PROFILES",
    "CorpusProfile",
    "CorpusWorkload",
    "corpus_programs",
]
