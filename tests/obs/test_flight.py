"""Flight recorder: ring bounds, tracing-off capture, dump shape."""

import json

import pytest

from repro.obs import hooks
from repro.obs.live import FlightRecorder
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _reset_recorder():
    yield
    hooks.reset()


class TestRing:
    def test_capacity_bounds_each_track(self):
        flight = FlightRecorder(capacity=4)
        tracer = Tracer(flight=flight, retain=False)
        for ts in range(10):
            tracer.instant(f"e{ts}", "hrtimer", ts)
        for ts in range(3):
            tracer.instant(f"k{ts}", "ringbuffer", ts)
        assert flight.recorded == 13
        assert len(flight) == 4 + 3  # timer ring saturated, kernel not
        timer_events = flight.dump("test")["tracks"]["hrtimer"]
        assert [event["name"] for event in timer_events] \
            == ["e6", "e7", "e8", "e9"]  # newest last, oldest evicted

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_seq_is_global_across_tracks(self):
        flight = FlightRecorder()
        flight.instant("a", "hrtimer", 1)
        flight.instant("b", "ringbuffer", 2)
        document = flight.dump("test")
        seqs = [event["seq"] for track in document["tracks"].values()
                for event in track]
        assert sorted(seqs) == [1, 2]


def _events(prefix, count):
    """``count`` instants spread over three tracks."""
    return [("i", f"{prefix}{n}", "cat", n, None, 0, 1 + n % 3, None)
            for n in range(count)]


class TestAbsorb:
    @pytest.mark.parametrize("before,during", [(0, 5), (3, 14), (13, 2)])
    def test_absorbed_tail_equals_recording_in_place(self, before, during):
        """Folding a trial ring's tail into the run's ring gives the same
        dump as recording the trial's events straight into it: same
        sequence numbers, same per-track eviction, same counts."""
        direct, folded, trial = (FlightRecorder(capacity=4) for _ in "abc")
        for event in _events("run", before):
            direct.record(event)
            folded.record(event)
        for event in _events("trial", during):
            direct.record(event)
            trial.record(event)
        folded.absorb(trial.tail())
        expected = direct.dump("end")
        actual = folded.dump("end")
        del expected["wall_time_s"], actual["wall_time_s"]
        assert actual == expected


class TestTracingOffCapture:
    def test_non_retaining_tracer_feeds_the_ring(self):
        """With full tracing off the tracer retains nothing, but every
        event still reaches the flight ring."""
        flight = FlightRecorder()
        recorder = hooks.Recorder(trace=False, flight=flight)
        hooks.install(recorder)
        try:
            obs = hooks.active()
            obs.drain_cycle(0, 1000, batch=4, paused=False,
                            interval_ns=2000)
        finally:
            hooks.reset()
        assert len(recorder.tracer) == 0
        assert flight.recorded >= 1
        with pytest.raises(ValueError):
            recorder.write_trace("unused.json")

    def test_retaining_tracer_tees_to_the_ring(self):
        flight = FlightRecorder()
        tracer = Tracer(flight=flight, retain=True)
        tracer.instant("x", "hrtimer", 5)
        assert len(tracer) == 1
        assert flight.recorded == 1


class TestDump:
    def test_document_shape(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.instant("health:drop-storm", "live", 123,
                       {"detail": "d"}, category="health")
        path = flight.write(tmp_path / "out.flight.json", "watchdog:test",
                            extra={"note": "n"})
        document = json.loads(path.read_text())
        assert document["format"] == "repro-flight-v1"
        assert document["reason"] == "watchdog:test"
        assert document["ring_capacity"] == 8
        assert document["events_recorded"] == 1
        assert document["events_retained"] == 1
        assert document["note"] == "n"
        event = document["tracks"]["live"][0]
        assert event["name"] == "health:drop-storm"
        assert event["ph"] == "i"
        assert event["args"] == {"detail": "d"}

    def test_dump_is_idempotent_and_keeps_recording(self):
        flight = FlightRecorder()
        flight.instant("a", "hrtimer", 1)
        first = flight.dump("one")
        flight.instant("b", "hrtimer", 2)
        second = flight.dump("two")
        assert len(first["tracks"]["hrtimer"]) == 1
        assert len(second["tracks"]["hrtimer"]) == 2
        assert flight.dumps == 2

    def test_span_events_carry_duration(self):
        flight = FlightRecorder()
        tracer = Tracer(flight=flight, retain=False)
        tracer.complete("span", "hrtimer", 1000, 2000)
        event = flight.dump("test")["tracks"]["hrtimer"][0]
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(2.0)  # us

    def test_unknown_track_id_gets_a_fallback_name(self):
        flight = FlightRecorder()
        flight.record(("i", "x", "cat", 0, None, 0, 999, None))
        assert "track 999" in flight.dump("test")["tracks"]
