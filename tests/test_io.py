"""Report serialization: JSON round-trip and CSV sample logs."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.analysis.timeseries import deltas, samples_to_series
from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.io import (
    ReportIOError,
    load_report_json,
    load_samples_csv,
    save_report_json,
    save_samples_csv,
)
from repro.sim.clock import ms
from repro.tools.base import SampleColumns, ToolReport
from repro.tools.registry import available_tools, create_tool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload


@pytest.fixture(scope="module")
def report():
    result = run_monitored(
        UniformComputeWorkload(5e7), create_tool("k-leb"),
        events=("LOADS", "STORES"), period_ns=ms(10), seed=0,
    )
    return result.report


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report_json(report, path)
        loaded = load_report_json(path)
        assert loaded.tool == report.tool
        assert loaded.events == report.events
        assert loaded.period_ns == report.period_ns
        assert loaded.totals == report.totals
        assert loaded.victim_wall_ns == report.victim_wall_ns
        assert loaded.metadata == report.metadata
        assert len(loaded.samples) == len(report.samples)
        for original, restored in zip(report.samples, loaded.samples):
            assert restored.timestamp == original.timestamp
            assert restored.values == original.values

    def test_compact_round_trip(self, report, tmp_path):
        path = tmp_path / "compact.json"
        save_report_json(report, path, compact=True)
        loaded = load_report_json(path)
        assert loaded.totals == report.totals
        assert len(loaded.samples) == len(report.samples)
        for original, restored in zip(report.samples, loaded.samples):
            assert restored.timestamp == original.timestamp
            assert restored.values == original.values

    def test_compact_is_smaller(self, report, tmp_path):
        pretty = tmp_path / "pretty.json"
        compact = tmp_path / "compact.json"
        save_report_json(report, pretty)
        save_report_json(report, compact, compact=True)
        assert compact.stat().st_size < pretty.stat().st_size

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReportIOError):
            load_report_json(tmp_path / "nope.json")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json{")
        with pytest.raises(ReportIOError):
            load_report_json(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ReportIOError):
            load_report_json(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"format_version": 1, "tool": "x"}')
        with pytest.raises(ReportIOError):
            load_report_json(path)

    def test_ragged_document_loads_squared(self, tmp_path):
        """A v1 document whose rows carry different events (perf-stat
        multiplexed and DBI reports wrote these before every tool fixed
        its row schema) loads as one fixed schema: the union of the row
        keys in first-seen order, a missing value reading 0."""
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({
            "format_version": 1, "tool": "perf-stat", "events": ["LOADS"],
            "period_ns": 10, "victim_wall_ns": 2, "victim_pid": 1,
            "totals": {}, "metadata": {},
            "samples": [
                {"timestamp": 0, "values": {"LOADS": 5, "STORES": 1}},
                {"timestamp": 1, "values": {"LOADS": 9}},
                {"timestamp": 2, "values": {"BRANCHES": 4}},
            ],
        }))
        samples = load_report_json(path).samples
        assert isinstance(samples, SampleColumns)
        assert samples.names == ("LOADS", "STORES", "BRANCHES")
        assert list(samples.column("STORES")) == [1, 0, 0]
        assert list(samples.column("BRANCHES")) == [0, 0, 4]
        series = samples_to_series(samples)
        np.testing.assert_array_equal(series.event("LOADS"), [5, 9, 0])


class TestCsvSamples:
    def test_round_trip(self, report, tmp_path):
        path = tmp_path / "samples.csv"
        save_samples_csv(report, path)
        samples = load_samples_csv(path)
        assert len(samples) == len(report.samples)
        assert samples[0].timestamp == report.samples[0].timestamp
        assert samples[-1].values == {
            name: int(value)
            for name, value in report.samples[-1].values.items()
        }

    def test_header_layout(self, report, tmp_path):
        path = tmp_path / "samples.csv"
        save_samples_csv(report, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("timestamp_ns,")
        assert "LOADS" in header

    def test_empty_report_rejected(self, tmp_path):
        empty = ToolReport(tool="none", events=[], period_ns=0, samples=SampleColumns(),
                           totals={}, victim_wall_ns=0, victim_pid=0)
        with pytest.raises(ReportIOError):
            save_samples_csv(empty, tmp_path / "x.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ReportIOError):
            load_samples_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("timestamp_ns,LOADS\nabc,def\n")
        with pytest.raises(ReportIOError):
            load_samples_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp_ns,LOADS,STORES\n1,2\n")
        with pytest.raises(ReportIOError):
            load_samples_csv(path)


_FOUR_EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")
_EIGHT_EVENTS = _FOUR_EVENTS + ("BRANCH_MISSES", "LLC_REFERENCES",
                                "LLC_MISSES", "FP_OPS")


class TestEveryToolRoundTrips:
    """Every tool reports one fixed-schema series that survives both
    on-disk formats and differences without a spurious wrap."""

    @given(tool=st.sampled_from(available_tools()),
           events=st.sampled_from((_FOUR_EVENTS, _EIGHT_EVENTS)),
           seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_round_trip(self, tool, events, seed):
        try:
            report = run_monitored(TripleLoopMatmul(320), create_tool(tool),
                                   events=events, period_ns=ms(10),
                                   seed=seed).report
        except ToolError:
            reject()  # more events than this tool can program
        samples = report.samples
        assert isinstance(samples, SampleColumns)
        assert len(samples) >= (0 if tool == "none" else 2)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "report.json"
            save_report_json(report, path)
            assert load_report_json(path).samples == samples
            if samples:
                path = Path(scratch) / "samples.csv"
                save_samples_csv(report, path)
                loaded = load_samples_csv(path)
                assert loaded.names == tuple(sorted(samples.names))
                assert loaded.timestamps == samples.timestamps
                for name in samples.names:
                    assert loaded.column(name) == samples.column(name)
        series = samples_to_series(samples)
        assert sorted(series.values) == sorted(samples.names)
        for name, values in deltas(series).values.items():
            assert ((values >= 0) & (values < 2 ** 47)).all(), name


class TestGzipArtifacts:
    """Transparent gzip for trace/metrics artifacts (``*.gz`` paths)."""

    @pytest.fixture
    def tracer(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        tracer.instant("tick", "hrtimer", 1_000)
        tracer.complete("drain-cycle", "controller", 2_000, 500)
        return tracer

    @pytest.fixture
    def registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("widgets_total", "help").default.inc(7)
        return registry

    def test_effective_suffix_sees_through_gz(self):
        from repro.io import effective_suffix

        assert effective_suffix("t.jsonl.gz") == ".jsonl"
        assert effective_suffix("t.json.gz") == ".json"
        assert effective_suffix("m.prom.gz") == ".prom"
        assert effective_suffix("m.prom") == ".prom"
        assert effective_suffix("bare.gz") == ""

    @pytest.mark.parametrize("name", ["t.json.gz", "t.jsonl.gz"])
    def test_trace_round_trip(self, tracer, tmp_path, name):
        from repro.io import load_trace_events

        plain = tmp_path / name[:-3]
        gz = tmp_path / name
        tracer.write(plain)
        tracer.write(gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"  # really gzipped
        plain_events = load_trace_events(plain)
        assert load_trace_events(gz) == plain_events
        assert any(event.get("name") == "drain-cycle"
                   for event in plain_events)

    @pytest.mark.parametrize("name", ["m.prom.gz", "m.json.gz"])
    def test_metrics_round_trip(self, registry, tmp_path, name):
        from repro.io import load_metrics

        plain = tmp_path / name[:-3]
        gz = tmp_path / name
        registry.write(plain)
        registry.write(gz)
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        assert load_metrics(gz) == load_metrics(plain)
        assert load_metrics(gz)["widgets_total"]["samples"][""] == 7.0

    def test_gzip_bytes_are_deterministic(self, registry, tmp_path):
        """mtime and file name are pinned, so compressed artifacts can
        be digest-compared like plain ones."""
        first = tmp_path / "a.prom.gz"
        second = tmp_path / "b.prom.gz"
        registry.write(first)
        registry.write(second)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_gzip_raises_report_io_error(self, tmp_path):
        from repro.io import load_metrics, load_trace_events

        bad = tmp_path / "bad.json.gz"
        bad.write_bytes(b"\x1f\x8bnot really gzip")
        with pytest.raises(ReportIOError):
            load_trace_events(bad)
        with pytest.raises(ReportIOError):
            load_metrics(bad)
