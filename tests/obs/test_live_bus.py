"""The snapshot bus: cadence-independence, topology, non-perturbation.

The load-bearing property: for *any* publication cadence, the merged
live view (trial-ordered fold of each trial's latest snapshot) equals
the post-hoc registry — because snapshots carry cumulative documents
and terminal snapshots are unconditional.  Hypothesis drives the
cadence through the publisher's deterministic ``gate`` hook.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_trials
from repro.faults import FaultPlan, RunLedger
from repro.obs import hooks
from repro.obs.live import (
    FlightRecorder,
    LivePublisher,
    LiveState,
    Snapshot,
    SnapshotBus,
    Watchdog,
    WatchdogConfig,
)
from repro.sim.clock import ms
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul

_EVENTS = ("LOADS", "STORES")


@pytest.fixture(autouse=True)
def _reset_recorder():
    yield
    hooks.reset()


def _armed_run(jobs, runs=3, faults=None, gate=None, interval_s=0.0):
    """One trial population with the live plane armed; returns
    ``(summaries, recorder, state, bus)`` after a full bus drain."""
    flight = FlightRecorder()
    recorder = hooks.Recorder(trace=False, flight=flight)
    state = LiveState(base_metrics=recorder.registry.to_json())
    bus = SnapshotBus(state)
    publisher = LivePublisher(bus, interval_s=interval_s, gate=gate)
    publisher.bind(recorder)
    recorder.publisher = publisher
    bus.start()
    hooks.install(recorder)
    try:
        summaries = run_trials(
            TripleLoopMatmul(64), create_tool("k-leb"), runs=runs,
            events=_EVENTS, period_ns=ms(10), base_seed=3, jobs=jobs,
            faults=faults, fault_ledger=RunLedger() if faults else None,
        )
    finally:
        hooks.reset()
        bus.stop()
    return summaries, recorder, state, bus


def _plain_run(jobs, runs=3, faults=None):
    recorder = hooks.Recorder(trace=False)
    hooks.install(recorder)
    try:
        summaries = run_trials(
            TripleLoopMatmul(64), create_tool("k-leb"), runs=runs,
            events=_EVENTS, period_ns=ms(10), base_seed=3, jobs=jobs,
            faults=faults, fault_ledger=RunLedger() if faults else None,
        )
    finally:
        hooks.reset()
    return summaries, recorder


class TestMergedEqualsPostHoc:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.booleans(), max_size=200))
    def test_any_cadence_converges(self, pattern):
        """Merged live metrics == post-hoc registry, whatever subset of
        heartbeats actually fires (finals are unconditional)."""
        hooks.reset()
        schedule = iter(pattern)
        gate = lambda: next(schedule, False)
        _, recorder, state, _ = _armed_run(jobs=1, gate=gate)
        assert (state.merged_registry().to_prometheus()
                == recorder.registry.to_prometheus())

    def test_every_heartbeat_converges_too(self):
        _, recorder, state, _ = _armed_run(jobs=1, gate=lambda: True)
        assert (state.merged_registry().to_prometheus()
                == recorder.registry.to_prometheus())
        assert state.counts()["done"] == 3

    def test_parallel_merged_equals_post_hoc(self):
        _, recorder, state, _ = _armed_run(jobs=4, interval_s=0.0)
        assert (state.merged_registry().to_prometheus()
                == recorder.registry.to_prometheus())

    def test_faulted_population_converges(self):
        plan = FaultPlan.parse("seed=7,crash=0.5,persistent=0.3")
        _, recorder, state, _ = _armed_run(jobs=1, faults=plan)
        assert (state.merged_registry().to_prometheus()
                == recorder.registry.to_prometheus())


class TestTopologyEquivalence:
    def test_jobs4_final_rows_equal_jobs1(self):
        """The converged per-trial rows agree across topologies on
        every deterministic field."""
        deterministic = ("trial", "status", "sim_now_ns", "samples",
                         "drops", "timer_fires", "faults", "level")
        _, _, serial_state, _ = _armed_run(jobs=1, interval_s=1e9)
        _, _, parallel_state, _ = _armed_run(jobs=4, interval_s=1e9)
        serial = [{key: row[key] for key in deterministic}
                  for row in serial_state.trial_rows()]
        parallel = [{key: row[key] for key in deterministic}
                    for row in parallel_state.trial_rows()]
        assert serial == parallel
        assert [row["status"] for row in serial] == ["done"] * 3

    def test_jobs4_merged_metrics_equal_jobs1(self):
        _, _, serial_state, _ = _armed_run(jobs=1)
        _, _, parallel_state, _ = _armed_run(jobs=4)
        assert (serial_state.merged_registry().to_prometheus()
                == parallel_state.merged_registry().to_prometheus())


class TestNonPerturbation:
    @pytest.mark.parametrize("faults", [None, "seed=7,crash=0.5"],
                             ids=["clean", "faulted"])
    def test_live_on_results_identical_to_off(self, faults):
        plan = FaultPlan.parse(faults) if faults else None
        live_summaries, live_recorder, _, _ = _armed_run(
            jobs=1, faults=plan, gate=lambda: True)
        plan = FaultPlan.parse(faults) if faults else None
        plain_summaries, plain_recorder = _plain_run(jobs=1, faults=plan)
        # TrialSummary equality excludes host-side fields by design.
        assert live_summaries == plain_summaries
        assert (live_recorder.registry.to_prometheus()
                == plain_recorder.registry.to_prometheus())


class TestBusPlumbing:
    def _snapshot(self, trial=0, seq=1, status="running", **overrides):
        fields = dict(trial=trial, seq=seq, status=status, sim_now_ns=100,
                      wall_s=0.0, samples=5, drops=0, timer_fires=5,
                      faults=0, level=0, overhead_percent=None,
                      budget_percent=None, metrics={})
        fields.update(overrides)
        return Snapshot(**fields)

    def test_flush_is_a_completion_barrier(self):
        state = LiveState()
        bus = SnapshotBus(state)
        bus.start()
        try:
            for seq in range(1, 51):
                bus.publish(self._snapshot(seq=seq))
            assert bus.flush()
            assert state.counts()["snapshots"] == 50
        finally:
            bus.stop()

    def test_flush_without_drainer_returns_false(self):
        assert SnapshotBus().flush(timeout_s=0.1) is False

    def test_stop_drains_outstanding_snapshots(self):
        state = LiveState()
        bus = SnapshotBus(state)
        bus.start()
        bus.publish(self._snapshot())
        bus.stop()
        assert state.counts()["snapshots"] == 1

    def test_listeners_see_every_snapshot(self):
        state = LiveState()
        seen = []
        state.add_listener(seen.append)
        state.apply(self._snapshot(seq=1))
        state.apply(self._snapshot(seq=2, status="done"))
        assert [snapshot.seq for snapshot in seen] == [1, 2]
        assert state.counts() == {"running": 0, "done": 1,
                                  "quarantined": 0, "snapshots": 2}

    def test_runs_document_shape(self):
        state = LiveState(run_label="table9")
        state.apply(self._snapshot())
        document = state.runs_document()
        assert document["run"]["label"] == "table9"
        assert document["run"]["trials_seen"] == 1
        assert document["trials"][0]["trial"] == 0
        assert document["trials"][0]["status"] == "running"

    def test_publisher_without_recorder_is_inert(self):
        bus = SnapshotBus()
        publisher = LivePublisher(bus)
        publisher.publish(0, "running")
        assert bus.published == 0

    def test_for_trial_clones_cadence_and_gate(self):
        gate = lambda: False
        parent = LivePublisher(SnapshotBus(), interval_s=0.5, gate=gate)
        child = parent.for_trial(7)
        assert child.trial == 7
        assert child.interval_s == 0.5
        assert child.gate is gate
        assert child.bus is parent.bus


class TestControlFieldsPropagate:
    def test_snapshots_carry_overhead_and_budget(self):
        """The controller's observation hook keeps the publisher's
        level/overhead/budget fields fresh; the next snapshot carries
        them (the watchdog's budget-breach check feeds on these)."""
        recorder = hooks.Recorder(trace=False)
        state = LiveState()
        bus = SnapshotBus(state)
        publisher = LivePublisher(bus, gate=lambda: False)
        publisher.bind(recorder)
        recorder.publisher = publisher
        recorder.control_observation(1_000, 3.5, 2, budget_percent=2.0)
        publisher.publish(1_000, "running")
        bus.start()
        assert bus.flush()
        bus.stop()
        (row,) = state.trial_rows()
        assert row["level"] == 2
        assert row["overhead_percent"] == 3.5
        assert row["budget_percent"] == 2.0


class TestMidTrialSnapshots:
    def test_drops_stream_mid_trial_and_trip_the_storm_watchdog(self):
        """Every heartbeat published on a starved run: a trial's live
        drop count reads the ring as it fills, so it rises before the
        trial is done, never falls, ends at the ring's count, and the
        drop-storm watchdog trips while the trial is still running."""
        state = LiveState()
        seen = []
        state.add_listener(seen.append)
        trips = []
        # Listeners run in order, so seen[-1] is the snapshot that
        # tripped the check.
        watchdog = Watchdog(
            WatchdogConfig(storm_drops=1, storm_intervals=2),
            on_trip=lambda check, detail: trips.append(
                (check, seen[-1].status)))
        state.add_listener(watchdog.observe)
        bus = SnapshotBus(state)
        recorder = hooks.Recorder(
            trace=False, publisher=LivePublisher(bus, gate=lambda: True))
        bus.start()
        hooks.install(recorder)
        try:
            summaries = run_trials(
                TripleLoopMatmul(256),
                KLebTool(buffer_capacity=16, controller_nice=10), runs=2,
                events=_EVENTS, period_ns=ms(1), jobs=1,
            )
        finally:
            hooks.reset()
            bus.stop()
        assert len(summaries) == 2
        for summary in summaries:
            snapshots = [snap for snap in seen
                         if snap.trial == summary.trial]
            drops = [snap.drops for snap in snapshots]
            assert drops == sorted(drops)
            assert snapshots[-1].status == "done"
            assert any(snap.drops for snap in snapshots[:-1])
            # The report's drop count is the ring's own count.
            assert drops[-1] == summary.report.metadata["samples_dropped"]
        assert ("drop-storm", "running") in trips
