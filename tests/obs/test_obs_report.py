"""Tests for the terminal report tool and the rarely-fired hooks.

The integration suite exercises the common path (trials, drains); this
file pins the long tail: overruns, adaptive-drain shrink/restore,
quarantines, ad-hoc spans, and every branch of
``python -m repro.obs.report``.
"""

import json

import pytest

from repro.faults import TrialLedger
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.hrtimer import HrTimer
from repro.kernel.kernel import Kernel
from repro.kernel.ringbuffer import ColumnarRing
from repro.obs import hooks, report
from repro.sim.clock import us
from repro.sim.engine import EventQueue
from repro.sim.rng import RngStreams


@pytest.fixture
def recorder():
    return hooks.Recorder()


# ----------------------------------------------------------------------
# Rare hook surface: every hook traces (and feeds its metric, where it
# still keeps one) exactly as advertised.  Queue, timer, ring and
# controller counts are projections of those objects' own counts (see
# tests/obs/test_hooks.py).
# ----------------------------------------------------------------------
class TestRareHooks:
    def test_queue_compacted(self, recorder):
        """A compaction reaches the metrics through the queue's own
        count: the queue registers with the installed recorder."""
        hooks.install(recorder)
        try:
            queue = EventQueue()
        finally:
            hooks.reset()
        handles = [queue.schedule(when, lambda when: None)
                   for when in range(100)]
        for handle in handles[:64]:
            handle.cancel()
        assert queue.counts.compactions == 1
        assert recorder.registry.get(
            "sim_queue_compactions_total").default.value == 1.0

    def test_timer_overrun_counts_and_traces(self, recorder):
        """A real overrunning timer counts its overruns and skipped
        slots; the hook traces one instant per overrun."""
        hooks.install(recorder)
        try:
            kernel = Kernel(Machine(i7_920()), config=KernelConfig(
                noise_enabled=False, hrtimer_jitter_mean_ns=0,
                hrtimer_jitter_sd_ns=0, irq_entry_ns=0, irq_exit_ns=0),
                rng=RngStreams(0))

            def slow_handler(when):
                kernel.charge_kernel_time(us(250))

            timer = HrTimer(kernel, slow_handler, label="kleb")
            timer.start(us(100))
            kernel.run(deadline=us(2000))
        finally:
            hooks.reset()
        counts = timer.counts
        assert counts.overruns > 0
        registry = recorder.registry
        assert registry.get(
            "hrtimer_overruns_total").default.value == counts.overruns
        assert registry.get(
            "hrtimer_skipped_slots_total").default.value == \
            counts.skipped_slots
        overruns = [event for event in recorder.tracer.to_dicts()
                    if event["name"] == "timer-overrun"]
        assert len(overruns) == counts.overruns
        assert sum(event["args"]["skipped"] for event in overruns) == \
            counts.skipped_slots

    def test_timer_overrun_hook_only_traces(self, recorder):
        recorder.timer_overrun("kleb", when=5_000, skipped=3)
        assert len(recorder.tracer) == 1
        registry = recorder.registry
        assert registry.get("hrtimer_overruns_total").default.value == 0
        assert registry.get(
            "hrtimer_skipped_slots_total").default.value == 0

    def test_timer_overrun_without_tracer(self):
        recorder = hooks.Recorder(trace=False)
        recorder.timer_overrun("kleb", when=5_000, skipped=2)
        assert recorder.tracer is None

    def test_buffer_episode_counters(self, recorder):
        """Ring episodes reach the metrics through the ring's own
        counts: the ring registers with the installed recorder."""
        hooks.install(recorder)
        try:
            ring = ColumnarRing(2, ("A",), resume_threshold=0)
        finally:
            hooks.reset()
        ring.squeeze(1)
        ring.push_row(1, (1,))     # fills the squeezed ring: pause
        ring.push_row(2, (2,))     # refused: drop
        ring.unsqueeze()
        ring.drain()               # resume
        registry = recorder.registry
        for name in ("ringbuffer_pushes_total", "ringbuffer_dropped_total",
                     "ringbuffer_pause_episodes_total",
                     "ringbuffer_resume_total",
                     "ringbuffer_squeeze_episodes_total",
                     "ringbuffer_depth_high_water"):
            assert registry.get(name).default.value == 1.0, name

    def test_drain_shrink_restore(self, recorder):
        recorder.drain_shrunk(now=1_000, interval_ns=50_000)
        recorder.drain_restored(now=2_000, interval_ns=100_000)
        names = [event[1] for event in recorder.tracer.dump_events()]
        assert names == ["drain-shrink", "drain-restore"]
        # The counts live in the controller state, not in the hooks.
        assert recorder.registry.get(
            "kleb_drain_shrinks_total").default.value == 0

    def test_drain_shrink_restore_without_tracer(self):
        recorder = hooks.Recorder(trace=False)
        recorder.drain_shrunk(now=1_000, interval_ns=50_000)
        recorder.drain_restored(now=2_000, interval_ns=100_000)
        assert recorder.tracer is None

    def test_trial_retry_and_quarantine(self, recorder):
        """The hooks only trace; the counts are the trial ledger's."""
        recorder.trial_retry(trial=3, attempt=1, kind="crash")
        recorder.trial_quarantined(trial=3, attempts=3)
        assert len(recorder.tracer) == 2
        registry = recorder.registry
        assert registry.get("trials_retried_total").default.value == 0
        assert registry.get("trials_quarantined_total").default.value == 0
        hooks.install(recorder)
        try:
            TrialLedger(trial=3, seed=3, attempts=3, quarantined=True)
        finally:
            hooks.reset()
        registry = recorder.registry
        assert registry.get("trials_retried_total").default.value == 2
        assert registry.get("trials_quarantined_total").default.value == 1

    def test_trial_retry_without_tracer(self):
        recorder = hooks.Recorder(trace=False)
        recorder.trial_retry(trial=0, attempt=1, kind="timeout")
        recorder.trial_quarantined(trial=0, attempts=3)
        assert recorder.tracer is None


# ----------------------------------------------------------------------
# Report tool
# ----------------------------------------------------------------------
def _faulted_recorder(faults=3):
    recorder = hooks.Recorder()
    recorder.trial_span(trial=0, seed=7, program="matmul", tool="k-leb",
                        wall_ns=2_000_000, samples=20)
    recorder.drain_cycle(start_ns=1_000, end_ns=51_000, batch=5,
                         paused=False, interval_ns=100_000)
    for index in range(faults):
        recorder.fault_landed(time_ns=1_000 * (index + 1),
                              site="hrtimer", kind="jitter")
    return recorder


class TestFormatNs:
    @pytest.mark.parametrize("value_us, expected", [
        (0.5, "500 ns"),
        (2.0, "2.000 us"),
        (2_000.0, "2.000 ms"),
        (2_000_000.0, "2.000 s"),
    ])
    def test_adaptive_unit(self, value_us, expected):
        assert report._format_ns(value_us) == expected


class TestSummaries:
    def test_no_spans(self):
        assert report.summarize_spans([]) == "no spans recorded"

    def test_no_faults(self):
        assert report.summarize_faults([]) == "no faults recorded"

    def test_no_drain_metrics(self):
        assert report.summarize_drain({}) == \
            "no drain-cycle metrics recorded"

    def test_fault_timeline_truncates(self, tmp_path):
        recorder = _faulted_recorder(faults=report._TIMELINE_MAX + 5)
        trace = tmp_path / "t.json"
        recorder.write_trace(trace)
        text = report.render(str(trace), None)
        assert f"({report._TIMELINE_MAX + 5} faults)" in text
        assert "... and 5 more" in text

    def test_render_trace_and_metrics(self, tmp_path):
        recorder = _faulted_recorder()
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        recorder.write_trace(trace)
        recorder.write_metrics(metrics)
        text = report.render(str(trace), str(metrics))
        assert "Top spans by simulated time" in text
        assert "Drain batch size" in text
        assert "Fault timeline (3 faults)" in text
        assert "jitter" in text and "hrtimer" in text


class TestMain:
    def test_prints_report(self, tmp_path, capsys):
        recorder = _faulted_recorder()
        trace = tmp_path / "t.json"
        recorder.write_trace(trace)
        assert report.main(["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Top spans by simulated time" in out

    def test_metrics_only(self, tmp_path, capsys):
        recorder = _faulted_recorder()
        metrics = tmp_path / "m.prom"
        recorder.write_metrics(metrics)
        assert report.main(["--metrics", str(metrics)]) == 0
        assert "Drain" in capsys.readouterr().out

    def test_requires_an_input(self, capsys):
        with pytest.raises(SystemExit):
            report.main([])
        assert "need --trace and/or --metrics" in \
            capsys.readouterr().err


class TestJsonOutput:
    def test_json_document_shape(self, tmp_path, capsys):
        recorder = _faulted_recorder()
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        recorder.write_trace(trace)
        recorder.write_metrics(metrics)
        assert report.main(["--trace", str(trace), "--metrics",
                            str(metrics), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-obs-report-v1"
        assert any(span["name"] == "drain-cycle"
                   for span in document["spans"])
        assert len(document["faults"]) == 3
        assert {"trial", "sim_ns", "kind", "site"} \
            <= set(document["faults"][0])
        assert "kleb_drain_batch_size" in document["metric_families"]

    def test_json_matches_text_content(self, tmp_path, capsys):
        recorder = _faulted_recorder()
        trace = tmp_path / "t.json"
        recorder.write_trace(trace)
        report.main(["--trace", str(trace), "--json"])
        document = json.loads(capsys.readouterr().out)
        spans = {span["name"]: span["count"]
                 for span in document["spans"]}
        text = report.render(str(trace), None)
        for name, count in spans.items():
            assert name in text and str(count) in text

    def test_gzipped_artifacts_render(self, tmp_path, capsys):
        recorder = _faulted_recorder()
        trace = tmp_path / "t.json.gz"
        recorder.write_trace(trace)
        assert report.main(["--trace", str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"]


class TestExitCodes:
    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert report.main(["--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1  # one-line diagnostic

    def test_malformed_metrics_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"metrics\"}")
        assert report.main(["--metrics", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert report.main(["--trace",
                            str(tmp_path / "nowhere.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_mode_also_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert report.main(["--trace", str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial document on stdout
