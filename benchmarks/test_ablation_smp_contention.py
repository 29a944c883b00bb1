"""Ablation — shared-LLC contention across cores.

The paper's scheduling motivation quantified: a cache-resident service
co-runs on a two-core shared-LLC cluster next to neighbours of
increasing memory intensity.  The slowdown curve is the reason
counter-guided placement (Fig. 5's classes feeding the §IV-B policy)
matters.
"""

import pytest

from repro.kernel.smp import corun_parallel
from repro.experiments.report import text_table
from repro.workloads.synthetic import (
    PointerChaseWorkload,
    StridedMemoryWorkload,
    UniformComputeWorkload,
)


def service():
    return PointerChaseWorkload(6 * 1024 * 1024, 600_000, seed=3,
                                name="service", address_base=0x1000_0000)


def neighbour(intensity):
    """0.0 = pure compute, 1.0 = full-rate streamer."""
    if intensity == 0.0:
        return UniformComputeWorkload(4e7, name="compute")
    accesses = int(300_000 * intensity)
    return StridedMemoryWorkload(
        64 * 1024 * 1024, accesses,
        instructions_per_access=10.0 / intensity,
        name=f"stream-{intensity:g}", address_base=0x8000_0000,
    )


INTENSITIES = (0.0, 0.25, 0.5, 1.0)


@pytest.fixture(scope="module")
def curve():
    results = {}
    for intensity in INTENSITIES:
        outcome = corun_parallel([service(), neighbour(intensity)], seed=1)
        results[intensity] = outcome[0].slowdown
    return results


def test_smp_contention_regenerate(benchmark, curve):
    benchmark.pedantic(
        lambda: corun_parallel([service(), neighbour(1.0)], seed=2),
        rounds=1, iterations=1,
    )
    rows = [[f"{intensity:g}", f"{slowdown:.3f}x"]
            for intensity, slowdown in curve.items()]
    print("\n" + text_table(
        ["neighbour memory intensity", "service slowdown"],
        rows, title="Ablation — shared-LLC contention vs neighbour intensity",
    ))


class TestShape:
    def test_compute_neighbour_free(self, curve):
        assert curve[0.0] == pytest.approx(1.0, abs=0.02)

    def test_slowdown_monotone_in_intensity(self, curve):
        ordered = [curve[intensity] for intensity in INTENSITIES]
        for lighter, heavier in zip(ordered, ordered[1:]):
            assert heavier >= lighter - 0.02

    def test_full_streamer_hurts(self, curve):
        assert curve[1.0] > 1.15

    def test_dynamic_range_justifies_placement(self, curve):
        """The planner's win: worst minus best neighbour is >15% of
        service performance."""
        assert curve[1.0] - curve[0.0] > 0.15
