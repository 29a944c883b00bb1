"""Hook protocol: null-recorder transparency and recorder behaviour.

The load-bearing property: with the (default) null recorder installed,
the instrumented hot paths are bit-identical to uninstrumented code —
any interleaving of hook calls changes nothing.  The Hypothesis test
drives ``EventQueue`` through arbitrary op sequences with hook calls
interleaved and compares full internal state, its own counts included,
against a queue that never saw a hook.
"""

import gc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.control.ledger import ControlLedger
from repro.faults import FaultPlan, TrialLedger
from repro.faults.inject import FaultInjector
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.hrtimer import HrTimer
from repro.kernel.kernel import Kernel
from repro.kernel.ringbuffer import ColumnarRing
from repro.obs import hooks
from repro.obs.hooks import NullRecorder, Recorder
from repro.sim.clock import us
from repro.sim.engine import EventQueue
from repro.sim.rng import RngStreams
from repro.tools.kleb.controller import ControllerState


def _kernel(faults=None):
    config = KernelConfig(noise_enabled=False, hrtimer_jitter_mean_ns=0,
                          hrtimer_jitter_sd_ns=0)
    return Kernel(Machine(i7_920()), config=config, rng=RngStreams(0),
                  faults=faults)


@pytest.fixture(autouse=True)
def _reset_recorder():
    yield
    hooks.reset()


class TestNullRecorder:
    def test_null_is_installed_by_default(self):
        assert isinstance(hooks.recorder(), NullRecorder)
        assert hooks.active() is None

    def test_every_hook_is_a_noop(self):
        null = hooks.recorder()
        null.timer_fired("t", 100, 5)
        null.timer_missed("t", 100)
        null.timer_overrun("t", 100, 2)
        null.timer_reprogrammed("t", 100, 200)
        null.drain_cycle(0, 10, 3, False, 100)
        null.drain_shrunk(0, 50)
        null.drain_restored(0, 100)
        null.control_observation(0, 1.0, 1)
        null.control_step(0, "degrade", 1, 200)
        null.control_frozen(0)
        null.fault_landed(0, "hrtimer", "jitter")
        null.trial_started(0)
        null.trial_span(0, 1, "p", "t", 10, 2)
        null.trial_retry(0, 1, "crash")
        null.trial_quarantined(0, 3)
        assert not null.__dict__  # still stateless

    def test_sources_built_while_disabled_register_nowhere(self):
        """Queues, timers and ledgers count for themselves either way;
        with the null recorder installed they hold no recorder at all."""
        kernel = _kernel()
        timer = HrTimer(kernel, lambda when: None)
        assert timer._obs is None
        assert not hasattr(kernel.events, "_obs")
        assert kernel.faults.ledger._obs is None
        TrialLedger(trial=0, seed=0)
        # A recorder installed afterwards has tracked neither ledger.
        recorder = Recorder()
        hooks.install(recorder)
        assert recorder.fault_ledgers == recorder.trial_ledgers == []

    def test_install_and_reset(self):
        recorder = Recorder()
        hooks.install(recorder)
        assert hooks.active() is recorder
        hooks.reset()
        assert hooks.active() is None


# Op stream for the interleaving property: queue operations mixed with
# direct hook calls against whatever recorder is installed (the null
# one).  Mirrors the reference-model suite in
# tests/properties/test_props_engine.py, which checks the counts.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("dispatch"), st.integers(0, 60)),
        st.tuples(st.just("hook"), st.integers(0, 6)),
    ),
    max_size=150,
)

_HOOK_CALLS = (
    lambda r: r.timer_fired("t", 10, 1),
    lambda r: r.timer_missed("t", 10),
    lambda r: r.timer_overrun("t", 10, 2),
    lambda r: r.fault_landed(0, "hrtimer", "jitter"),
    lambda r: r.trial_span(0, 1, "p", "t", 10, 2),
    lambda r: r.drain_shrunk(0, 5),
    lambda r: r.drain_cycle(0, 5, 1, False, 10),
)


def _queue_state(queue: EventQueue):
    return (
        sorted((when, seq, event.label, event._cancelled)
               for when, seq, event in queue._heap),
        queue._live,
        queue._dead,
        tuple(getattr(queue.counts, name) for name in
              ("fired", "cancelled", "compactions", "peak")),
    )


class TestNullRecorderTransparency:
    @given(_OPS)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_hook_calls_leave_engine_state_bit_identical(
            self, ops):
        hooked = EventQueue()
        plain = EventQueue()
        hooked_fired = []
        plain_fired = []
        handles = []
        for op, value in ops:
            if op == "schedule":
                label = f"e{len(handles)}"
                handles.append((
                    hooked.schedule(value, hooked_fired.append, label),
                    plain.schedule(value, plain_fired.append, label),
                ))
            elif op == "cancel":
                if handles:
                    real, mirror = handles[value % len(handles)]
                    real.cancel()
                    mirror.cancel()
            elif op == "dispatch":
                hooked.dispatch_due(value)
                plain.dispatch_due(value)
            else:
                # Fire a hook on the installed (null) recorder between
                # engine operations — must be invisible.
                _HOOK_CALLS[value % len(_HOOK_CALLS)](hooks.recorder())
            assert _queue_state(hooked) == _queue_state(plain)
            assert hooked_fired == plain_fired
        hooked.dispatch_due(10**9)
        plain.dispatch_due(10**9)
        assert hooked_fired == plain_fired
        assert _queue_state(hooked) == _queue_state(plain)

    def test_queue_built_while_disabled_never_calls_recorder(self):
        """Registration happens at construction: a queue built under
        the null recorder is not projected even if a live recorder is
        installed afterwards."""
        queue = EventQueue()
        recorder = Recorder()
        hooks.install(recorder)
        queue.schedule(5, lambda when: None)
        queue.dispatch_due(10)
        assert recorder.registry.get(
            "sim_events_fired_total").default.value == 0


class TestRecorderHooks:
    @pytest.fixture
    def recorder(self):
        recorder = Recorder()
        hooks.install(recorder)
        return recorder

    def test_queue_hooks_feed_metrics(self, recorder):
        queue = EventQueue()  # built with the recorder installed
        handles = [queue.schedule(t, lambda when: None) for t in range(5)]
        handles[0].cancel()
        queue.dispatch_due(10)
        counts = queue.counts
        assert (counts.fired, counts.cancelled, counts.peak) == (4, 1, 5)
        registry = recorder.registry
        assert registry.get("sim_events_fired_total").default.value == 4
        assert registry.get(
            "sim_events_cancelled_total").default.value == 1
        assert registry.get(
            "sim_queue_depth_high_water").default.value == 5

    def test_queue_counts_sum_and_high_water_takes_the_max_peak(
            self, recorder):
        small, big = EventQueue(), EventQueue()
        small.schedule(1, lambda when: None)
        for when in range(3):
            big.schedule(when, lambda when: None)
        small.dispatch_due(10)
        big.dispatch_due(10)
        registry = recorder.registry
        assert registry.get("sim_events_fired_total").default.value == 4
        assert registry.get(
            "sim_queue_depth_high_water").default.value == 3

    def test_timer_and_fault_hooks_emit_trace_events(self, recorder):
        recorder.timer_missed("kleb", 1_000)
        recorder.fault_landed(2_000, "ringbuffer", "squeeze")
        names = [event[1] for event in recorder.tracer.dump_events()]
        assert names == ["timer-missed", "fault:squeeze"]
        registry = recorder.registry
        # The miss is the timer's to count and the fault its ledger's:
        # the hooks only trace.
        assert registry.get("hrtimer_missed_total").default.value == 0
        assert registry.get(
            "faults_landed_total").labels("ringbuffer").value == 0

    def test_timer_counts_project_into_metrics(self, recorder):
        kernel = _kernel(FaultInjector(FaultPlan.parse(
            "seed=1,timer_miss=0.5")))
        timer = HrTimer(kernel, lambda when: None, label="t")
        timer.start(us(100))
        kernel.run(deadline=us(2_050))
        timer.reprogram(us(200))
        missed = timer.counts.missed
        assert timer.fires + missed == 20 and missed > 0
        registry = recorder.registry
        assert registry.get(
            "hrtimer_fires_total").default.value == timer.fires
        assert registry.get(
            "hrtimer_missed_total").default.value == missed
        assert registry.get(
            "hrtimer_reprogram_total").default.value == 1
        # Both the timer's re-arm and the kernel's events were counted
        # by the queue that dispatched them.
        assert registry.get(
            "sim_events_fired_total").default.value == \
            kernel.events.counts.fired

    def test_recorder_keeps_the_counts_not_the_simulation(self, recorder):
        kernel = _kernel(FaultInjector(FaultPlan.parse(
            "seed=1,timer_miss=0.5")))
        timer = HrTimer(kernel, lambda when: None, label="t")
        timer.start(us(100))
        kernel.run(deadline=us(450))  # the next fire stays pending
        fired = kernel.events.counts.fired
        missed = timer.counts.missed
        assert recorder.fault_ledgers == [kernel.faults.ledger]
        alive = weakref.ref(kernel)
        injector = weakref.ref(kernel.faults)
        del kernel, timer
        gc.collect()
        assert alive() is None and injector() is None
        registry = recorder.registry
        assert registry.get(
            "sim_events_fired_total").default.value == fired > 0
        # The registered ledger outlives its injector and still counts.
        assert registry.get(
            "faults_landed_total").labels("hrtimer").value == missed > 0

    def test_trials_are_the_wall_histogram_count(self, recorder):
        recorder.trial_span(0, 1, "p", "t", 10, 2)
        recorder.trial_span(1, 2, "p", "t", 20, 2)
        registry = recorder.registry
        assert registry.get("trials_total").default.value == 2
        assert registry.get("trial_sim_wall_ns").default.count == 2

    def test_lateness_histogram_observes_fires(self, recorder):
        recorder.timer_fired("kleb", 10_000, 1_500)
        hist = recorder.registry.get("hrtimer_fire_lateness_ns").default
        assert hist.count == 1 and hist.sum == 1_500

    def test_metrics_only_recorder_skips_tracing(self):
        recorder = Recorder(trace=False)
        recorder.timer_missed("t", 0)
        assert recorder.tracer is None
        with pytest.raises(ValueError):
            recorder.write_trace("/tmp/never.json")


class TestTrialCapture:
    def test_yields_none_when_disabled(self):
        with hooks.trial_capture(0) as child:
            assert child is None

    def test_installs_child_and_restores_parent(self):
        parent = Recorder()
        hooks.install(parent)
        with hooks.trial_capture(3) as child:
            assert hooks.active() is child
            assert child is not parent
            assert child.tracer.pid == 3
        assert hooks.active() is parent

    def test_parent_restored_on_exception(self):
        parent = Recorder()
        hooks.install(parent)
        with pytest.raises(RuntimeError):
            with hooks.trial_capture(0):
                raise RuntimeError("boom")
        assert hooks.active() is parent

    def test_chunk_merge_round_trip(self):
        parent = Recorder()
        hooks.install(parent)
        with hooks.trial_capture(2) as child:
            queue = EventQueue()  # registers with the child
            for when in range(9):
                queue.schedule(when, lambda when: None)
            queue.dispatch_due(10)
            child.trial_span(2, 7, "matmul", "k-leb", 1_000, 3)
            chunk = child.chunk()
        hooks.merge_chunk(chunk)
        assert parent.queues == []
        assert parent.registry.get(
            "sim_events_fired_total").default.value == 9
        assert parent.registry.get("trials_total").default.value == 1
        spans = [event for event in parent.tracer.to_dicts()
                 if event["name"] == "trial"]
        assert spans[0]["pid"] == 2

    def test_merge_chunk_none_is_a_noop(self):
        hooks.merge_chunk(None)  # disabled path: nothing to do
        parent = Recorder()
        hooks.install(parent)
        hooks.merge_chunk(None)
        assert len(parent.tracer) == 0

    def test_child_inherits_flags(self):
        parent = Recorder(trace=False, wallclock=False)
        hooks.install(parent)
        with hooks.trial_capture(0) as child:
            assert child.tracer is None


class TestStatsProjection:
    """Ring and controller counts are held once, by the records, and
    every read of ``Recorder.registry`` projects them."""

    @staticmethod
    def _tracked_rings(recorder, count):
        hooks.install(recorder)
        try:
            return [ColumnarRing(4, ("A",)) for _ in range(count)]
        finally:
            hooks.reset()

    def test_ring_counts_sum_and_high_water_takes_the_max_peak(self):
        recorder = Recorder()
        small, big = self._tracked_rings(recorder, 2)
        small.push_row(0, (1,))
        for when in range(3):
            big.push_row(when, (when,))
        big.take_high_watermark()
        big.drain()
        registry = recorder.registry
        assert registry.get("ringbuffer_pushes_total").default.value == 4
        assert registry.get(
            "ringbuffer_depth_high_water").default.value == 3

    def test_ring_built_while_disabled_is_not_tracked(self):
        ring = ColumnarRing(4, ("A",))
        recorder = Recorder()
        hooks.install(recorder)
        ring.push_row(0, (1,))
        assert recorder.registry.get(
            "ringbuffer_pushes_total").default.value == 0

    def test_view_is_a_fresh_read(self):
        recorder = Recorder()
        (ring,) = self._tracked_rings(recorder, 1)
        ring.push_row(0, (1,))
        view = recorder.registry
        view.get("ringbuffer_pushes_total").default.value = 99
        ring.push_row(1, (2,))
        assert recorder.registry.get(
            "ringbuffer_pushes_total").default.value == 2

    def test_retry_series_appear_only_when_non_zero(self):
        recorder = Recorder()
        recorder.controllers.append(ControllerState(
            ioctl_retries=2, recovery_reads=1, drain_shrinks=1,
            ioctl_recoveries=1))
        recorder.controllers.append(ControllerState(ioctl_retries=1,
                                                    drain_restores=3,
                                                    ioctl_recoveries=1))
        registry = recorder.registry
        retries = registry.get("kleb_retries_total").series
        assert {labels: series.value
                for labels, series in retries.items()} == {
            ("ioctl",): 3.0, ("recovery-read",): 1.0}
        recovered = registry.get("faults_recovered_total").series
        assert {labels: series.value
                for labels, series in recovered.items()} == {
            ("ioctl",): 2.0}
        assert registry.get("kleb_drain_shrinks_total").default.value == 1
        assert registry.get("kleb_drain_restores_total").default.value == 3

    def test_control_families_stay_lazy_until_the_first_observation(
            self):
        control = SimpleNamespace(observations=0, ledger=ControlLedger())
        state = ControllerState(control=control)
        recorder = Recorder()
        recorder.controllers.append(state)
        assert "control_observations_total" not in recorder.registry
        recorder.control_observation(10, 1.5, 2)
        control.observations = 4
        control.ledger.record(5, "degrade", 0, 1, 200)
        control.ledger.record(9, "degrade", 1, 2, 400)
        state.frozen_observations = 2
        registry = recorder.registry
        assert registry.get(
            "control_observations_total").default.value == 4
        steps = registry.get("control_steps_total").series
        assert {labels: series.value
                for labels, series in steps.items()} == {("degrade",): 2.0}
        assert registry.get(
            "control_frozen_observations_total").default.value == 2

    def test_chunk_carries_the_projection_once(self):
        parent = Recorder()
        hooks.install(parent)
        with hooks.trial_capture(0) as child:
            ring = ColumnarRing(4, ("A",))
            ring.push_row(0, (1,))
            chunk = child.chunk()
        hooks.merge_chunk(chunk)
        assert parent.registry.get(
            "ringbuffer_pushes_total").default.value == 1
