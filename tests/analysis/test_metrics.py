"""Derived metrics: MPKI, IPC, GFLOPS, miss ratio."""

import pytest

from repro.analysis.metrics import gflops, mpki, report_mpki
from repro.errors import ExperimentError


class TestMpki:
    def test_basic(self):
        assert mpki(misses=500, instructions=100_000) == 5.0

    def test_zero_instructions_rejected(self):
        with pytest.raises(ExperimentError):
            mpki(10, 0)

    def test_paper_threshold_values(self):
        # 10 misses per kilo-instruction is the Muralidhara boundary.
        assert mpki(10_000, 1_000_000) == 10.0


class TestGflops:
    def test_flops_per_ns_is_gflops(self):
        # 37.24e9 FLOPs in one second -> 37.24 GFLOPS.
        assert gflops(37.24e9, 1e9) == pytest.approx(37.24)

    def test_zero_time_rejected(self):
        with pytest.raises(ExperimentError):
            gflops(1, 0)


class TestReportMpki:
    def test_from_totals(self):
        totals = {"LLC_MISSES": 752.0, "INST_RETIRED": 100_000.0}
        assert report_mpki(totals) == pytest.approx(7.52)

    def test_missing_miss_event(self):
        with pytest.raises(ExperimentError):
            report_mpki({"INST_RETIRED": 1000.0})

    def test_missing_instructions(self):
        with pytest.raises(ExperimentError):
            report_mpki({"LLC_MISSES": 10.0})

    def test_custom_miss_event(self):
        totals = {"L2_MISSES": 100.0, "INST_RETIRED": 10_000.0}
        assert report_mpki(totals, miss_event="L2_MISSES") == 10.0
