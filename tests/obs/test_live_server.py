"""The live HTTP plane: endpoint routing, bodies, status codes."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import hooks
from repro.obs.live import (
    LiveServer,
    LiveState,
    Watchdog,
    WatchdogConfig,
    render_metrics,
)
from repro.obs.live.bus import Snapshot


def snap(trial=0, seq=1, status="running", metrics=None):
    return Snapshot(trial=trial, seq=seq, status=status, sim_now_ns=100,
                    wall_s=0.0, samples=5, drops=0, timer_fires=5,
                    faults=0, level=0, overhead_percent=None,
                    budget_percent=None,
                    metrics=metrics if metrics is not None else {})


@pytest.fixture
def plane():
    recorder = hooks.Recorder(trace=False)
    state = LiveState(base_metrics=recorder.registry.to_json(),
                      run_label="test-run")
    watchdog = Watchdog(WatchdogConfig(quarantine_spike=1))
    state.add_listener(watchdog.observe)
    server = LiveServer(state, watchdog, port=0)
    server.start()
    yield state, watchdog, server
    server.stop()


def fetch(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


class TestEndpoints:
    def test_metrics_exposes_preregistered_and_live_families(self, plane):
        state, _, server = plane
        status, content_type, body = fetch(server.url + "/metrics")
        assert status == 200
        assert "version=0.0.4" in content_type
        # Pre-registered families appear before any snapshot arrives.
        assert "# TYPE hrtimer_fires_total counter" in body
        assert "# TYPE live_snapshots_total counter" in body
        assert "# TYPE health_check_state gauge" in body

    def test_metrics_reflects_applied_snapshots(self, plane):
        state, _, server = plane
        state.apply(snap())
        _, _, body = fetch(server.url + "/metrics")
        assert "live_snapshots_total 1" in body
        assert "live_trials_running 1" in body

    def test_healthz_ok_then_503_when_degraded(self, plane):
        state, _, server = plane
        status, _, body = fetch(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        state.apply(snap(trial=1, status="quarantined"))
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server.url + "/healthz")
        assert info.value.code == 503
        verdict = json.loads(info.value.read().decode("utf-8"))
        assert verdict["status"] == "degraded"
        assert verdict["degraded_checks"] == ["quarantine-spike"]

    def test_runs_document(self, plane):
        state, _, server = plane
        state.apply(snap())
        state.apply(snap(trial=1, seq=1, status="done"))
        _, content_type, body = fetch(server.url + "/runs")
        assert content_type == "application/json"
        document = json.loads(body)
        assert document["run"]["label"] == "test-run"
        assert document["run"]["trials_seen"] == 2
        assert [row["status"] for row in document["trials"]] \
            == ["running", "done"]

    def test_index_and_404(self, plane):
        _, _, server = plane
        status, _, body = fetch(server.url + "/")
        assert status == 200 and "/metrics" in body
        with pytest.raises(urllib.error.HTTPError) as info:
            fetch(server.url + "/nope")
        assert info.value.code == 404

    def test_healthz_without_watchdog_is_ok(self):
        server = LiveServer(LiveState(), watchdog=None, port=0)
        server.start()
        try:
            status, _, body = fetch(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = LiveServer(LiveState(), port=0)
        server.start()
        server.stop()
        server.stop()


class TestRenderMetrics:
    def test_merged_families_precede_live_families(self):
        recorder = hooks.Recorder(trace=False)
        state = LiveState(base_metrics=recorder.registry.to_json())
        text = render_metrics(state, Watchdog())
        assert text.index("hrtimer_fires_total") \
            < text.index("live_snapshots_total") \
            < text.index("health_check_state")

    def test_parses_as_prometheus(self):
        from repro.obs.metrics import parse_prometheus_text

        recorder = hooks.Recorder(trace=False)
        state = LiveState(base_metrics=recorder.registry.to_json())
        state.apply(snap(metrics=recorder.registry.to_json()))
        families = parse_prometheus_text(render_metrics(state, Watchdog()))
        assert families["live_snapshots_total"]["samples"][""] == 1.0
        assert families["health_check_state"]["kind"] == "gauge"
