"""Machine presets matching the paper's two evaluation platforms.

The paper ran locally on an Intel Core i7-920 (Nehalem, 2.67 GHz) and
verified results on an AWS Intel Xeon Platinum 8259CL (Cascade Lake,
2.50 GHz).  Counts differed by < 1 % for architectural events while
cache-event magnitudes shifted with the cache structure — our presets
reproduce exactly that: same core model, different cache geometry.
"""

from __future__ import annotations

from repro.hw.cache import CacheConfig
from repro.hw.machine import MachineConfig


def i7_920() -> MachineConfig:
    """Intel Core i7-920 analogue (Nehalem): 32K/256K/8M caches, 2.67 GHz."""
    return MachineConfig(
        name="i7-920",
        frequency_hz=2.67e9,
        cache_levels=[
            CacheConfig("L1D", 32 * 1024, ways=8, hit_latency_cycles=4),
            CacheConfig("L2", 256 * 1024, ways=8, hit_latency_cycles=11),
            CacheConfig("LLC", 8 * 1024 * 1024, ways=16, hit_latency_cycles=39),
        ],
        memory_latency_cycles=200,
    )


def xeon_8259cl() -> MachineConfig:
    """Intel Xeon Platinum 8259CL analogue (Cascade Lake): bigger L2,
    larger (but here per-core-slice comparable) LLC, 2.50 GHz."""
    return MachineConfig(
        name="xeon-8259cl",
        frequency_hz=2.50e9,
        cache_levels=[
            CacheConfig("L1D", 32 * 1024, ways=8, hit_latency_cycles=4),
            CacheConfig("L2", 1024 * 1024, ways=16, hit_latency_cycles=14),
            CacheConfig("LLC", 16 * 1024 * 1024, ways=16, hit_latency_cycles=44),
        ],
        memory_latency_cycles=220,
    )
