"""Shared-LLC clusters and parallel co-running."""

import pytest

from repro.kernel.config import KernelConfig
from repro.kernel.smp import SmpCluster, corun_parallel
from repro.errors import ExperimentError
from repro.sim.clock import ms, seconds, us
from repro.workloads.synthetic import (
    PointerChaseWorkload,
    StridedMemoryWorkload,
    UniformComputeWorkload,
)


def service(base=0x1000_0000):
    return PointerChaseWorkload(6 * 1024 * 1024, 500_000, seed=3,
                                name="service", address_base=base)


def streamer(base=0x8000_0000):
    return StridedMemoryWorkload(64 * 1024 * 1024, 250_000,
                                 name="streamer", address_base=base)


def compute():
    return UniformComputeWorkload(3e7, name="compute")


class TestClusterBasics:
    def test_invalid_core_count(self):
        with pytest.raises(ExperimentError):
            SmpCluster(cores=0)

    def test_kernels_share_one_llc(self):
        cluster = SmpCluster(cores=3)
        llcs = {id(kernel.machine.cache.llc) for kernel in cluster.kernels}
        assert len(llcs) == 1

    def test_private_levels_are_private(self):
        cluster = SmpCluster(cores=2)
        l1_ids = {id(kernel.machine.cache.levels[0])
                  for kernel in cluster.kernels}
        assert len(l1_ids) == 2

    def test_shared_llc_touched_by_one_core_is_seen_by_another(self):
        """Set storage is allocated on first touch; a core whose own
        hierarchy is still cold sees the lines another core brought
        into their shared LLC."""
        cluster = SmpCluster(cores=2)
        cache0 = cluster.kernel(0).machine.cache
        cache1 = cluster.kernel(1).machine.cache
        address = 0x1000_0000
        cache0.access(address)
        assert cache1.cold
        assert cache1.contains(address) == "LLC"
        assert cache1.levels[0]._sets == []
        assert cache1.access(address).hit_level == "LLC"
        assert not cache1.cold
        assert cache1.contains(address) == "L1D"

    def test_unknown_core_rejected(self):
        cluster = SmpCluster(cores=2)
        with pytest.raises(ExperimentError):
            cluster.kernel(5)

    def test_lockstep_skew_bounded(self):
        cluster = SmpCluster(cores=2)
        cluster.spawn(0, compute())
        cluster.spawn(1, compute())
        cluster.run(deadline_ns=ms(5), window_ns=us(100))
        assert cluster.max_skew_ns() <= us(100)

    def test_run_until_tasks_exit(self):
        cluster = SmpCluster(cores=2)
        a = cluster.spawn(0, compute())
        b = cluster.spawn(1, compute())
        cluster.run_until_tasks_exit([a, b], deadline_ns=seconds(5))
        assert not a.alive and not b.alive

    def test_deadline_violation_raises(self):
        cluster = SmpCluster(cores=1)
        task = cluster.spawn(0, UniformComputeWorkload(1e12))
        with pytest.raises(ExperimentError):
            cluster.run_until_tasks_exit([task], deadline_ns=ms(1))


class TestSharedLlcContention:
    def test_llc_eviction_crosses_cores(self):
        """Lines one core brought in can be evicted by another core's
        traffic — the defining property of a shared LLC."""
        cluster = SmpCluster(cores=2)
        cache0 = cluster.kernel(0).machine.cache
        cache1 = cluster.kernel(1).machine.cache
        victim_address = 0x1000_0000
        cache0.access(victim_address)
        assert cache0.contains(victim_address) is not None
        # Core 1 streams enough lines to evict core 0's line from the
        # shared LLC (but not from core 0's private levels).
        for index in range(300_000):
            cache1.access_fast(0x8000_0000 + index * 64)
        assert not cluster.llcs[0].contains(victim_address)

    def test_streamer_slows_cache_resident_service(self):
        results = corun_parallel([service(), streamer()], seed=1)
        by_name = {result.name: result for result in results}
        assert by_name["service"].slowdown > 1.15

    def test_compute_neighbour_is_harmless(self):
        results = corun_parallel([service(), compute()], seed=1)
        by_name = {result.name: result for result in results}
        assert by_name["service"].slowdown == pytest.approx(1.0, abs=0.02)

    def test_streamer_is_insensitive(self):
        """Compulsory-miss traffic has nothing to lose: the aggressor
        itself is barely affected."""
        results = corun_parallel([service(), streamer()], seed=1)
        by_name = {result.name: result for result in results}
        assert by_name["streamer"].slowdown == pytest.approx(1.0, abs=0.02)

    def test_corun_needs_two_programs(self):
        with pytest.raises(ExperimentError):
            corun_parallel([compute()])


class TestPerCoreMonitoring:
    def test_kleb_on_one_core_of_a_cluster(self):
        """Per-core K-LEB: monitor the service while an aggressor runs
        on the other core — the Torres VM-monitoring scenario."""
        from repro.tools.kleb import KLebTool

        cluster = SmpCluster(cores=2, seed=2)
        victim = cluster.spawn(0, service(), start=False)
        aggressor = cluster.spawn(1, streamer())
        session = KLebTool().attach(cluster.kernel(0), victim,
                                    ("LLC_REFERENCES", "LLC_MISSES"), ms(1))
        cluster.run_until_tasks_exit([victim], deadline_ns=seconds(10))
        report = session.finalize()
        assert report.sample_count > 0
        # Contention shows up as LLC misses the solo service never has.
        solo_cluster = SmpCluster(cores=1, seed=2)
        solo = solo_cluster.spawn(0, service(), start=False)
        solo_session = KLebTool().attach(solo_cluster.kernel(0), solo,
                                         ("LLC_REFERENCES", "LLC_MISSES"),
                                         ms(1))
        solo_cluster.run_until_tasks_exit([solo], deadline_ns=seconds(10))
        solo_report = solo_session.finalize()
        assert report.totals["LLC_MISSES"] > \
            1.5 * solo_report.totals["LLC_MISSES"]


class TestClusterValidation:
    """Geometry and window validation: diagnostics, not desyncs."""

    def test_non_positive_window_rejected_at_construction(self):
        # Regression: a non-positive lockstep window used to be
        # accepted and silently desynchronized the cluster.
        with pytest.raises(ExperimentError, match="window"):
            SmpCluster(cores=2, window_ns=0)
        with pytest.raises(ExperimentError, match="window"):
            SmpCluster(cores=2, window_ns=-100)

    def test_non_positive_window_rejected_at_run(self):
        cluster = SmpCluster(cores=2)
        with pytest.raises(ExperimentError, match="window"):
            cluster.run(deadline_ns=ms(1), window_ns=0)
        with pytest.raises(ExperimentError, match="window"):
            cluster.run_until_tasks_exit([], deadline_ns=ms(1),
                                         window_ns=-1)

    def test_invalid_socket_count(self):
        with pytest.raises(ExperimentError):
            SmpCluster(cores=2, sockets=0)

    def test_cores_must_divide_across_sockets(self):
        with pytest.raises(ExperimentError):
            SmpCluster(cores=3, sockets=2)


class TestTopologyAndUncore:
    def test_one_uncore_per_socket(self):
        cluster = SmpCluster(cores=4, sockets=2)
        assert len(cluster.uncores) == 2
        assert len(cluster.llcs) == 2
        assert [uncore.socket for uncore in cluster.uncores] == [0, 1]

    def test_sockets_do_not_share_an_llc(self):
        cluster = SmpCluster(cores=4, sockets=2)
        llc_ids = [id(kernel.machine.cache.llc)
                   for kernel in cluster.kernels]
        # Cores 0/1 share socket 0's LLC; cores 2/3 share socket 1's.
        assert llc_ids[0] == llc_ids[1]
        assert llc_ids[2] == llc_ids[3]
        assert llc_ids[0] != llc_ids[2]

    def test_uncore_sees_llc_traffic(self):
        cluster = SmpCluster(cores=2)
        task = cluster.spawn(0, streamer())
        cluster.run_until_tasks_exit([task], deadline_ns=seconds(10))
        totals = cluster.uncores[0].totals()
        assert totals["UNC_IMC_CAS_READS"] > 0
        assert totals["UNC_LLC_LOOKUPS"] >= totals["UNC_LLC_MISSES"] > 0
        assert cluster.uncores[0].bandwidth_bytes_per_sec > 0

    def test_idle_cluster_uncore_stays_quiet(self):
        cluster = SmpCluster(cores=2)
        cluster.run(deadline_ns=ms(2))
        assert cluster.uncores[0].totals()["UNC_IMC_CAS_READS"] == 0

    def test_per_core_pid_spaces_do_not_collide(self):
        cluster = SmpCluster(cores=3)
        pids = [cluster.spawn(cpu, compute()).pid for cpu in range(3)]
        assert len(set(pids)) == 3
        assert pids[0] == 1000  # core 0 keeps the classic pid base


class TestMigratingLockstep:
    """The smp_migrate configuration: matmul n=512 under one K-LEB on 4
    migrating cores beside 3 pinned streamers, 100 us period.

    Known bug, pinned here and not yet fixed: once the victim migrates,
    the cluster's cores drift hundreds of milliseconds apart (190-286 ms
    at victim exit across these seeds), and on seed 6 the victim's wall
    time (16.7 ms) disagrees with the 286.9 ms its samples span.  The
    fix changes the ``smp_migrate`` outcome digests, so it must
    re-record ``benchmarks/e2e/expected_seed0.json`` and drop the mark.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="lockstep clock drifts once the victim "
                              "migrates")
    @pytest.mark.parametrize("seed", range(8))
    def test_clocks_and_wall_time_agree_at_victim_exit(self, seed):
        from repro.experiments.smp import SMP_QUANTUM_NS
        from repro.tools.kleb import KLebTool
        from repro.workloads.matmul import TripleLoopMatmul

        # Built as run_monitored_smp builds it, to reach the cluster.
        cluster = SmpCluster(cores=4, seed=seed, migrate=True,
                             kernel_config=KernelConfig(
                                 noise_enabled=False,
                                 quantum_ns=SMP_QUANTUM_NS))
        victim = cluster.spawn(0, TripleLoopMatmul(512), start=False)
        for index in range(3):
            task = cluster.spawn(1 + index, StridedMemoryWorkload(
                64 * 1024 * 1024, 20_000, name=f"streamer{index}",
                address_base=(index + 1) << 30))
            task.pinned = True
        period_ns = us(100)
        session = KLebTool().attach_cluster(
            cluster, victim, ["LOADS", "STORES", "LLC_MISSES",
                              "BRANCH_MISSES"], period_ns)
        cluster.run_until_tasks_exit([victim], deadline_ns=seconds(30))
        skew_ns = cluster.max_skew_ns()
        timestamps = session.finalize().samples.timestamps
        span_ns = timestamps[-1] - timestamps[0]
        assert skew_ns <= cluster.window_ns + SMP_QUANTUM_NS
        # The first sample lands a few periods after the victim starts
        # (0.5 ms on a clean single-core run), so the span may trail the
        # wall time by up to a quantum.
        assert abs(victim.wall_time_ns - span_ns) <= SMP_QUANTUM_NS
