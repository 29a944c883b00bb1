"""perf stat and perf record behaviour."""

import pytest

from repro.analysis.timeseries import deltas, samples_to_series
from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms, us
from repro.tools.perf import PerfRecordTool, PerfStatTool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES", "BRANCHES")


@pytest.fixture(scope="module")
def stat_run():
    return run_monitored(
        UniformComputeWorkload(2e8), PerfStatTool(), events=EVENTS,
        period_ns=ms(10), seed=4,
    )


@pytest.fixture(scope="module")
def record_run():
    return run_monitored(
        UniformComputeWorkload(2e8), PerfRecordTool(), events=EVENTS,
        period_ns=ms(10), seed=4,
    )


class TestPerfStat:
    def test_ten_ms_floor(self):
        tool = PerfStatTool()
        assert tool.effective_period(us(100)) == ms(10)
        assert tool.effective_period(ms(20)) == ms(20)

    def test_interval_samples_collected(self, stat_run):
        # ~75 ms victim at ~10 ms intervals.
        assert 4 <= stat_run.report.sample_count <= 9

    def test_totals_exact_counting_mode(self, stat_run):
        totals = stat_run.report.totals
        assert totals["INST_RETIRED"] == pytest.approx(2e8, rel=1e-6)
        assert totals["LOADS"] == pytest.approx(0.30 * 2e8, rel=1e-6)

    def test_metadata_reports_intervals(self, stat_run):
        assert stat_run.report.metadata["intervals"] == \
            stat_run.report.sample_count
        assert stat_run.report.metadata["multiplexed"] == 0.0

    def test_interval_spacing_at_least_jiffy(self, stat_run):
        samples = stat_run.report.samples
        gaps = [b.timestamp - a.timestamp
                for a, b in zip(samples, samples[1:])]
        assert all(gap >= ms(10) for gap in gaps)


class TestPerfStatMultiplexing:
    def test_multiplexed_run_estimates_all_events(self):
        events = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL",
                  "LLC_MISSES", "BRANCH_MISSES")
        result = run_monitored(
            UniformComputeWorkload(5e8), PerfStatTool(), events=events,
            period_ns=ms(10), seed=4,
        )
        report = result.report
        assert report.metadata["multiplexed"] == 1.0
        for event in events:
            assert event in report.totals
        # Scaled estimates land near the truth but are not exact.
        true_loads = 0.30 * 5e8
        estimate = report.totals["LOADS"]
        assert estimate == pytest.approx(true_loads, rel=0.25)
        assert estimate != pytest.approx(true_loads, rel=1e-9)

    def test_multiplexing_error_exceeds_counting_error(self):
        events = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL",
                  "LLC_MISSES", "BRANCH_MISSES")
        multiplexed = run_monitored(
            UniformComputeWorkload(5e8), PerfStatTool(), events=events,
            period_ns=ms(10), seed=4,
        )
        counted = run_monitored(
            UniformComputeWorkload(5e8), PerfStatTool(), events=EVENTS,
            period_ns=ms(10), seed=4,
        )
        true_loads = 0.30 * 5e8

        def error(report):
            return abs(report.totals["LOADS"] - true_loads) / true_loads

        assert error(multiplexed.report) > error(counted.report)

    def test_rows_keep_one_schema(self):
        """Every interval row holds the fixed counters plus the
        cumulative raw count of every requested event, whichever group
        is on the counters: no column goes missing from the series and
        no delta reads as a 48-bit wrap."""
        events = ("LOADS", "STORES", "BRANCHES", "BRANCH_MISSES",
                  "LLC_REFERENCES", "LLC_MISSES", "ARITH_MUL", "FP_OPS")
        report = run_monitored(
            TripleLoopMatmul(512), PerfStatTool(), events=events,
            period_ns=ms(10), seed=1,
        ).report
        samples = report.samples
        assert samples.names == (
            ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES") + events)
        assert len(samples) >= 2
        for name, values in deltas(samples_to_series(samples)).values.items():
            assert ((values >= 0) & (values < 2 ** 47)).all(), name
        # The row schema does not touch the scaled estimates.
        assert report.totals == {
            "INST_RETIRED": 672573544.0,
            "CORE_CYCLES": 672573544.0,
            "REF_CYCLES": 672573544.0,
            "LOADS": 268435452.87397733,
            "STORES": 134217724.52408732,
            "BRANCHES": 134217724.52408732,
            "BRANCH_MISSES": 402638.9530636434,
            "LLC_REFERENCES": 1342174.1749625257,
            "LLC_MISSES": 268430.22509355424,
            "ARITH_MUL": 134217723.42591022,
            "FP_OPS": 268435451.04263768,
        }


class TestPerfRecord:
    def test_ten_ms_floor(self):
        assert PerfRecordTool().effective_period(us(100)) == ms(10)

    def test_sampling_mode_estimates_totals(self, record_run):
        """Record reconstructs counts from samples: slight deficit."""
        totals = record_run.report.totals
        truth = 2e8
        assert totals["INST_RETIRED"] < truth
        assert totals["INST_RETIRED"] > truth * 0.80

    def test_samples_collected(self, record_run):
        assert record_run.report.sample_count >= 5

    def test_record_cheaper_than_stat(self):
        base = run_monitored(UniformComputeWorkload(2e8),
                             _null(), events=EVENTS, seed=6)
        stat = run_monitored(UniformComputeWorkload(2e8), PerfStatTool(),
                             events=EVENTS, period_ns=ms(10), seed=6)
        record = run_monitored(UniformComputeWorkload(2e8), PerfRecordTool(),
                               events=EVENTS, period_ns=ms(10), seed=6)
        stat_overhead = stat.wall_ns - base.wall_ns
        record_overhead = record.wall_ns - base.wall_ns
        assert record_overhead < stat_overhead

    def test_no_multiplexing_support(self):
        events = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL", "LLC_MISSES")
        from repro.hw.machine import Machine
        from repro.hw.presets import i7_920
        from repro.kernel.kernel import Kernel
        from repro.sim.rng import RngStreams

        kernel = Kernel(Machine(i7_920()), rng=RngStreams(0))
        task = kernel.spawn(UniformComputeWorkload(1e6), start=False)
        with pytest.raises(ToolError):
            PerfRecordTool().attach(kernel, task, events, ms(10))


def _null():
    from repro.tools.null import NullTool

    return NullTool()
