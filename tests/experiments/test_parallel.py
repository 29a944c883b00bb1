"""Parallel trial execution: determinism, ordering, error propagation."""

import pytest

from repro.errors import ExperimentError, ToolUnsupportedError
from repro.experiments.parallel import default_jobs, map_trials, resolve_jobs
from repro.experiments.runner import run_trials
from repro.obs import hooks
from repro.sim.clock import ms
from repro.tools.limit import LimitTool
from repro.tools.registry import create_tool
from repro.workloads.dgemm import MklDgemm
from repro.workloads.linpack import LinpackWorkload, measured_gflops
from repro.workloads.matmul import TripleLoopMatmul

EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")


class TestResolveJobs:
    def test_explicit_count_clamped_to_runs(self):
        assert resolve_jobs(8, 3) == 3

    def test_one_is_one(self):
        assert resolve_jobs(1, 100) == 1

    def test_none_means_all_cores(self):
        assert resolve_jobs(None, 10 ** 6) == default_jobs()

    def test_non_positive_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(0, 10)
        with pytest.raises(ExperimentError):
            resolve_jobs(-2, 10)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        """The acceptance bar: 10 matmul/K-LEB trials, jobs=4 vs jobs=1,
        byte-identical summaries in trial order."""
        kwargs = dict(events=EVENTS, period_ns=ms(1), base_seed=5)
        serial = run_trials(TripleLoopMatmul(200), create_tool("k-leb"),
                            runs=10, jobs=1, **kwargs)
        parallel = run_trials(TripleLoopMatmul(200), create_tool("k-leb"),
                              runs=10, jobs=4, **kwargs)
        assert len(parallel) == 10
        # Dataclass equality covers wall/cpu time, the full report
        # (samples, totals, metadata), scratch, and seeds; only the
        # host-side timing field is excluded from comparison.
        assert parallel == serial

    def test_results_come_back_in_trial_order(self):
        results = run_trials(TripleLoopMatmul(128), create_tool("none"),
                             runs=6, base_seed=2, jobs=3)
        assert [r.trial for r in results] == list(range(6))
        assert [r.seed for r in results] == [2 + t for t in range(6)]

    def test_scratch_survives_the_pool(self):
        """LINPACK's gettimeofday markers must cross the process
        boundary — Table I computes GFLOPS from them."""
        results = run_trials(LinpackWorkload(600), create_tool("k-leb"),
                             runs=2, events=EVENTS, period_ns=ms(10), jobs=2)
        for summary in results:
            assert measured_gflops(summary) > 0


class TestErrorPropagation:
    def test_unsupported_pairing_raises_from_workers(self):
        with pytest.raises(ToolUnsupportedError):
            run_trials(MklDgemm(128), LimitTool(), runs=2, events=EVENTS,
                       period_ns=ms(10), jobs=2)


class TestFallbacks:
    def test_single_run_goes_serial(self):
        results = run_trials(
            TripleLoopMatmul(128), create_tool("none"), runs=1, jobs=4,
            events=EVENTS, period_ns=ms(10), base_seed=0,
        )
        assert len(results) == 1 and results[0].trial == 0


def _nested_population(outer_jobs):
    """Outer trial ``i`` runs an inner two-trial population inline."""

    def outer(index):
        return run_trials(TripleLoopMatmul(64), create_tool("k-leb"),
                          runs=2, events=EVENTS, period_ns=ms(10),
                          base_seed=10 * index, jobs=1)

    recorder = hooks.Recorder()
    hooks.install(recorder)
    try:
        values = map_trials(outer, 3, jobs=outer_jobs)
    finally:
        hooks.reset()
    return (values, recorder.tracer.to_chrome_json(),
            recorder.registry.to_prometheus())


class TestNestedPopulations:
    def test_nested_population_identical_across_outer_jobs(self):
        serial = _nested_population(outer_jobs=1)
        parallel = _nested_population(outer_jobs=2)
        assert [len(inner) for inner in serial[0]] == [2, 2, 2]
        assert [[s.seed for s in inner] for inner in serial[0]] \
            == [[0, 1], [10, 11], [20, 21]]
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        assert parallel[2] == serial[2]
        assert "trials_total 6" in serial[2]
