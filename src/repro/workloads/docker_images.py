"""Docker image workload profiles (paper §IV-B, Fig. 5).

The paper pulls popular images from Docker Hub and classifies them by
LLC misses per kilo-instruction (Muralidhara et al.: MPKI > 10 means
memory-intensive):

* interpreter images (Ruby, Golang, Python) — MPKI < 1;
* MySQL, Traefik, Ghost — MPKI between 1 and 10 (still
  computation-intensive);
* web-server images (Apache, Nginx, Tomcat) — MPKI well above 10.

Each profile describes one *service iteration* (a request / unit of
work): a compute block plus a memory trace over a hot working set,
fresh streaming lines (the LLC misses), and medium-distance reuse
(LLC hits).  MPKI emerges from those access patterns through the cache
model; the ``target_mpki`` field records the class the paper measured
so tests can assert the emergent value lands in the right class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from repro.workloads.base import Block, Program, RateBlock, Trace, TraceBlock

_LINE = 64


@dataclass(frozen=True)
class DockerImageProfile:
    """Behavioural profile of one Docker image's service loop."""

    image: str
    category: str                 # "interpreter" | "middleware" | "webserver"
    target_mpki: float            # class anchor from the paper's figure
    compute_instructions: float   # per iteration
    hot_set_bytes: int            # resident working set
    hot_ops: int                  # accesses into the hot set per iteration
    stream_ops: int               # fresh streaming lines per iteration (miss)
    reuse_ops: int                # medium-distance revisits (LLC hits)
    instructions_per_op: float = 4.0
    event_scale: float = 4.0
    cpi: float = 1.0
    # Long-distance revisits: addresses ~far_reuse_distance_lines back
    # in the stream history.  Chosen between the two platforms' LLC
    # capacities (i7-920: 128Ki lines; Xeon 8259CL: 256Ki lines), these
    # hit on the big-LLC machine and miss on the small one — the
    # paper's "absolute values of cache misses vary with the cache
    # structure of the processor".
    far_reuse_ops: int = 0
    far_reuse_distance_lines: int = 160_000


def _profile(image: str, category: str, target_mpki: float,
             stream_ops: int, hot_set_kib: int, hot_ops: int = 800,
             reuse_ops: int = 300, far_reuse_ops: int = 0,
             compute_instructions: float = 1.0e6) -> DockerImageProfile:
    return DockerImageProfile(
        image=image,
        category=category,
        target_mpki=target_mpki,
        compute_instructions=compute_instructions,
        hot_set_bytes=hot_set_kib * 1024,
        hot_ops=hot_ops,
        stream_ops=stream_ops,
        reuse_ops=reuse_ops,
        far_reuse_ops=far_reuse_ops,
    )


# stream_ops per iteration is the dominant MPKI knob: each fresh line is
# one LLC miss.  With ~1e6 compute instructions plus trace instructions,
# MPKI ~= stream_ops / (total kilo-instructions).
DOCKER_IMAGES: Dict[str, DockerImageProfile] = {
    profile.image: profile
    for profile in [
        # Interpreters: everything lives in the hot set.
        _profile("python", "interpreter", 0.60, stream_ops=410, hot_set_kib=384),
        _profile("golang", "interpreter", 0.30, stream_ops=175, hot_set_kib=256),
        _profile("ruby", "interpreter", 0.45, stream_ops=290, hot_set_kib=320),
        _profile("node", "interpreter", 0.80, stream_ops=560, hot_set_kib=448),
        # Middleware: moderate streaming (query buffers, logs).
        _profile("mysql", "middleware", 4.5, stream_ops=4340, hot_set_kib=1024),
        _profile("traefik", "middleware", 2.8, stream_ops=2540, hot_set_kib=768),
        _profile("ghost", "middleware", 6.5, stream_ops=6590, hot_set_kib=1024),
        _profile("postgres", "middleware", 5.5, stream_ops=5400, hot_set_kib=1536),
        _profile("redis", "middleware", 8.5, stream_ops=8700, hot_set_kib=2048),
        # Web servers: request/response buffers stream through memory.
        _profile("apache", "webserver", 18.0, stream_ops=19900, hot_set_kib=3072,
                 far_reuse_ops=1700),
        _profile("nginx", "webserver", 14.0, stream_ops=14650, hot_set_kib=2048,
                 far_reuse_ops=1250),
        _profile("tomcat", "webserver", 22.0, stream_ops=25700, hot_set_kib=4096,
                 far_reuse_ops=2200),
    ]
}


class ContainerWorkload(Program):
    """The service loop of one container, built from its image profile."""

    def __init__(self, profile: DockerImageProfile, iterations: int = 20,
                 seed: int = 0, address_base: int = 0x2000_0000) -> None:
        self.name = f"container-{profile.image}"
        self.profile = profile
        self.iterations = iterations
        self.seed = seed
        self.address_base = address_base

    @property
    def metadata(self) -> Dict[str, float]:
        return {
            "target_mpki": self.profile.target_mpki,
            "iterations": float(self.iterations),
        }

    def blocks(self) -> Iterator[Block]:
        profile = self.profile
        rng = np.random.default_rng(self.seed)
        hot_lines = max(1, profile.hot_set_bytes // _LINE)
        hot_base = self.address_base
        stream_base = self.address_base + profile.hot_set_bytes + (1 << 24)
        # Stream line k is the k-th stream access of the run, so the
        # previous iteration's stream and every far-reuse window are
        # ranges of line numbers below ``streamed``.
        for iteration in range(self.iterations):
            yield RateBlock(
                instructions=profile.compute_instructions,
                rates={
                    "LOADS": 0.28,
                    "STORES": 0.13,
                    "BRANCHES": 0.17,
                    "BRANCH_MISSES": 0.004,
                },
                cpi=profile.cpi,
                label=f"service-{iteration}",
            )
            hot_indices = rng.integers(0, hot_lines, size=profile.hot_ops)
            streamed = iteration * profile.stream_ops
            lines = [np.arange(streamed, streamed + profile.stream_ops)]
            if streamed and profile.reuse_ops:
                step = max(1, profile.stream_ops // profile.reuse_ops)
                previous = np.arange(streamed - profile.stream_ops, streamed)
                lines.append(previous[::step][:profile.reuse_ops])
            if profile.far_reuse_ops and \
                    streamed > profile.far_reuse_distance_lines:
                window_end = streamed - profile.far_reuse_distance_lines
                lines.append(np.arange(
                    max(0, window_end - profile.far_reuse_ops), window_end))
            trace = Trace(np.concatenate(
                [hot_base + hot_indices * _LINE,
                 stream_base + np.concatenate(lines) * _LINE]))
            yield TraceBlock(
                ops=trace,
                instructions_per_op=profile.instructions_per_op,
                event_scale=profile.event_scale,
                cpi=profile.cpi,
                label=f"memory-{iteration}",
            )
