"""Tracer: span recording on the simulated clock and Chrome export."""

import json

import pytest

from repro.obs.trace import TRACKS, Tracer


class TestSpanRecording:
    def test_complete_span_records_start_and_duration(self):
        tracer = Tracer()
        tracer.complete("work", "controller", 1_000, 2_500)
        ((ph, name, cat, ts, dur, pid, tid, args),) = tracer.dump_events()
        assert (ph, name, ts, dur) == ("X", "work", 1_000, 2_500)
        assert tid == TRACKS["controller"]

    def test_instants_keep_simulated_ordering(self):
        tracer = Tracer()
        for ts in (5_000, 1_000, 3_000):
            tracer.instant("tick", "hrtimer", ts)
        assert [event["ts"] for event in tracer.to_dicts()] == \
            [5.0, 1.0, 3.0]

    def test_unknown_track_falls_back_to_zero(self):
        tracer = Tracer()
        tracer.instant("x", "no-such-track", 0)
        assert tracer.to_dicts()[0]["tid"] == 0


class TestChromeSchema:
    @pytest.fixture
    def document(self):
        tracer = Tracer()
        tracer.pid = 3
        tracer.complete("drain-cycle", "controller", 10_000, 700,
                        {"batch": 4}, category="controller")
        tracer.instant("fault:squeeze", "faults", 20_000,
                       {"site": "ringbuffer"}, category="fault")
        return json.loads(tracer.to_chrome_json())

    def test_document_shape(self, document):
        assert document["displayTimeUnit"] == "ns"
        assert isinstance(document["traceEvents"], list)

    def test_every_event_has_required_keys(self, document):
        for event in document["traceEvents"]:
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0 and "ts" in event
            elif event["ph"] == "i":
                assert event["s"] == "t"

    def test_timestamps_are_microseconds(self, document):
        spans = [event for event in document["traceEvents"]
                 if event["ph"] == "X"]
        assert spans[0]["ts"] == 10.0 and spans[0]["dur"] == 0.7

    def test_metadata_names_every_pid_and_track(self, document):
        metadata = [event for event in document["traceEvents"]
                    if event["ph"] == "M"]
        names = {(event["name"], event["pid"], event["tid"]):
                 event["args"]["name"] for event in metadata}
        assert names[("process_name", 3, 0)] == "trial 3"
        assert names[("thread_name", 3, TRACKS["controller"])] == \
            "controller"
        assert names[("thread_name", 3, TRACKS["faults"])] == "faults"

    def test_args_survive_export(self, document):
        spans = [event for event in document["traceEvents"]
                 if event["ph"] == "X"]
        assert spans[0]["args"] == {"batch": 4}


class TestExportFormats:
    def test_jsonl_one_event_per_line(self):
        tracer = Tracer()
        tracer.instant("a", "engine", 1)
        tracer.complete("b", "engine", 2, 3)
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_write_selects_format_by_suffix(self, tmp_path):
        tracer = Tracer()
        tracer.instant("a", "engine", 1)
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        tracer.write(chrome)
        tracer.write(jsonl)
        assert "traceEvents" in json.loads(chrome.read_text())
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "a"

    def test_canonical_export_is_deterministic(self):
        def build():
            tracer = Tracer()
            tracer.complete("s", "engine", 10, 20, {"k": 1, "j": 2})
            tracer.instant("i", "tool", 30)
            return tracer

        assert build().to_chrome_json() == build().to_chrome_json()

    def test_wallclock_annotation_is_opt_in(self):
        plain = Tracer()
        plain.instant("a", "engine", 1)
        assert "args" not in plain.to_dicts()[0]
        stamped = Tracer(wallclock=True)
        stamped.instant("a", "engine", 1)
        assert "wall_ns" in stamped.to_dicts()[0]["args"]


class TestChunkShipping:
    def test_absorb_preserves_event_content_and_order(self):
        child = Tracer()
        child.pid = 7
        child.complete("trial", "runner", 0, 100)
        child.instant("tick", "hrtimer", 50)
        parent = Tracer()
        parent.instant("before", "runner", 1)
        parent.absorb_events(child.dump_events())
        names = [event["name"] for event in parent.to_dicts()]
        assert names == ["before", "trial", "tick"]
        # Child events keep their own pid (trial identity).
        assert parent.to_dicts()[1]["pid"] == 7

    def test_chunks_survive_json_round_trip(self):
        """Chunks cross process boundaries; tuples may come back as
        lists, which absorb_events must normalize."""
        child = Tracer()
        child.complete("x", "engine", 5, 6, {"n": 1})
        wire = json.loads(json.dumps(child.dump_events()))
        parent = Tracer()
        parent.absorb_events(wire)
        assert parent.to_dicts() == child.to_dicts()
