"""CLI entry points (run via main() with argv injection).

Every ``run`` passes ``--jobs`` explicitly: the default is the host's
core count, which would make a test's path depend on the machine.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.control import ControlLedger
from repro.io import load_report_json
from repro.tools.registry import available_tools


class TestList:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "table2", "table3",
                              "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert experiment_id in out


class TestListEvents:
    def test_list_events_shows_catalogue(self, capsys):
        assert main(["list-events"]) == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out
        assert "INST_RETIRED" in out
        assert "fixed0" in out          # pinned events show their slot
        assert "architectural" in out
        assert "microarchitectural" in out

    def test_list_events_kind_filter(self, capsys):
        assert main(["list-events", "--kind", "arch"]) == 0
        out = capsys.readouterr().out
        assert "INST_RETIRED" in out
        assert "microarchitectural" not in out


class TestMonitor:
    def test_monitor_matmul_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--period-ms", "10", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k-leb" in out
        assert "INST_RETIRED" in out
        assert "samples" in out

    def test_monitor_rejects_unknown_tool(self):
        with pytest.raises(SystemExit):
            main(["monitor", "--tool", "vtune"])

    def test_monitor_custom_events(self, capsys):
        code = main(["monitor", "--workload", "secret-printer",
                     "--tool", "k-leb", "--period-ms", "0.1",
                     "--events", "LLC_MISSES,LLC_REFERENCES"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out

    def test_monitor_unknown_event_suggests_and_lists(self, capsys):
        code = main(["monitor", "--workload", "secret-printer",
                     "--tool", "k-leb", "--period-ms", "0.1",
                     "--events", "LLC_MISES"])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "LLC_MISSES" in err
        # The full catalogue follows the error so the user can pick.
        assert "INST_RETIRED" in err

    def test_monitor_multiplex_rotates_extra_events(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--period-ms", "0.1", "--multiplex", "1", "--seed", "1",
                     "--events",
                     "LOADS,STORES,BRANCHES,BRANCH_MISSES,"
                     "LLC_REFERENCES,LLC_MISSES"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out

    def test_monitor_multiplex_requires_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "perf-stat",
                     "--multiplex", "1"])
        assert code == 2
        assert "--multiplex is only supported by the k-leb tool" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5"])
    def test_monitor_multiplex_rejects_non_positive(self, capsys, value):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--multiplex", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "--multiplex must be a positive rotation period" in err

    def test_monitor_too_many_events_without_multiplex_errors(self, capsys):
        code = main(["monitor", "--workload", "secret-printer",
                     "--tool", "k-leb", "--period-ms", "0.1",
                     "--events",
                     "LOADS,STORES,BRANCHES,BRANCH_MISSES,LLC_MISSES"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "pass a multiplex period" in err


class TestMonitorAdaptive:
    def test_adapt_runs_and_summarizes_control(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--adapt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive control:" in out
        assert "budget 2%" in out

    def test_adapt_requires_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul",
                     "--tool", "perf-stat", "--adapt"])
        assert code == 2
        assert "--adapt is only supported by the k-leb tool" \
            in capsys.readouterr().err

    def test_overhead_budget_requires_adapt(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--overhead-budget", "5"])
        assert code == 2
        assert "--overhead-budget requires --adapt" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "100.5"])
    def test_overhead_budget_range_checked(self, capsys, value):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--adapt", "--overhead-budget", value])
        assert code == 2
        assert "--overhead-budget must be in (0, 100]" \
            in capsys.readouterr().err

    def test_adapt_with_custom_budget(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--adapt",
                     "--overhead-budget", "1.5"])
        assert code == 0
        assert "budget 1.5%" in capsys.readouterr().out


class TestMonitorSmp:
    def test_monitor_smp_runs_and_reports_per_core(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--cores", "2", "--migrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "topology : 2 core(s), 1 socket(s), migration on" in out
        assert "per-core victim totals" in out
        assert "cpu0" in out and "cpu1" in out
        assert "uncore[0]:" in out
        assert "migrations:" in out

    @pytest.mark.parametrize("argv,fragment", [
        (["--cores", "0"], "--cores must be >= 1"),
        (["--cores", "-2"], "--cores must be >= 1"),
        (["--cores", "2", "--sockets", "0"], "--sockets must be >= 1"),
        (["--cores", "4", "--sockets", "3"], "divide evenly"),
        (["--migrate"], "--migrate requires --cores"),
        (["--sockets", "2"], "--sockets requires --cores"),
        (["--cores", "1", "--migrate"], "--migrate needs --cores >= 2"),
        (["--cores", "2", "--adapt"], "not supported on an SMP session"),
        (["--cores", "2", "--multiplex", "1.0"],
         "not supported on an SMP session"),
        (["--cores", "2", "--tool", "perf-stat"],
         "only supported by the k-leb tool"),
        (["--period-ms", "-1"], "--period-ms must be a positive"),
        (["--period-ms", "0"], "--period-ms must be a positive"),
        (["--period-ms", "0", "--cores", "2"],
         "--period-ms must be a positive"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--seed", "-1", "--cores", "2"], "--seed must be >= 0, got -1"),
        (["--events", "LOADS,STORES,BRANCHES,BRANCH_MISSES,LLC_MISSES"],
         "pass a multiplex period"),
        (["--faults", "ioctl=1.0"], "transient ioctl('config') failure"),
        (["--workload", "secret-printer", "--save-csv", "{tmp}/s.csv"],
         "report has no samples to write"),
    ])
    def test_monitor_smp_validation_exits_2(self, capsys, tmp_path, argv,
                                            fragment):
        code = main(["monitor", "--workload", "dgemm"]
                    + [arg.format(tmp=tmp_path) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err

    def test_monitor_smp_prints_fault_summary(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--period-ms", "1",
                     "--cores", "2", "--faults", "seed=3,ioctl=0.5,read=0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^injected faults: [1-9]\d*$", out, re.MULTILINE)
        assert re.search(r"^recovery: ioctl_retries=\d+, read_retries=\d+$",
                         out, re.MULTILINE)


_FOUR_EVENTS = "LOADS,STORES,BRANCHES,LLC_MISSES"
_FIVE_EVENTS = "LOADS,STORES,BRANCHES,BRANCH_MISSES,LLC_MISSES"
_FAULTS = "seed=3,ioctl=0.3,read=0.2"

#: The ``monitor`` flag grammar: each flag with the values it may take.
#: None leaves the flag out; True/False toggle a switch.
_MONITOR_GRAMMAR = [
    ("--tool", available_tools()),
    ("--workload", ["secret-printer", "dgemm"]),
    ("--period-ms", ["-1", "0", "0.1", "1"]),
    ("--events", [_FOUR_EVENTS, _FIVE_EVENTS]),
    ("--multiplex", [None, "-1", "1"]),
    ("--adapt", [False, True]),
    ("--overhead-budget", [None, "0", "2", "150"]),
    ("--cores", [None, "0", "1", "2", "4"]),
    ("--sockets", ["1", "2", "3"]),
    ("--migrate", [False, True]),
    ("--faults", [None, _FAULTS, "ioctl=1.0"]),
    ("--seed", ["-1", "0", "3"]),
]

#: Runnable starting points: a single-core multiplexed closed-loop run
#: and a migrating SMP run, both under injected faults.  A uniform draw
#: over all twelve flags is almost always rejected by some rule, so each
#: example redraws a few flags of one baseline instead: both exit paths
#: and the flag interactions get exercised.
_MONITOR_BASELINES = [
    {"--workload": "dgemm", "--period-ms": "1", "--events": _FIVE_EVENTS,
     "--multiplex": "1", "--adapt": True, "--faults": _FAULTS},
    {"--workload": "dgemm", "--period-ms": "1", "--cores": "2",
     "--migrate": True, "--faults": _FAULTS},
]


def _monitor_argv(flags):
    argv = ["monitor"]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, value]
    return argv


_MONITOR_ARGV = st.tuples(
    st.sampled_from(_MONITOR_BASELINES),
    st.lists(st.sampled_from(_MONITOR_GRAMMAR).flatmap(
        lambda flag_values: st.tuples(st.just(flag_values[0]),
                                      st.sampled_from(flag_values[1]))),
             unique_by=lambda pair: pair[0], max_size=4),
).map(lambda drawn: _monitor_argv({**drawn[0], **dict(drawn[1])}))


class TestMonitorFlagGrammar:
    """Every ``monitor`` flag combination runs or exits 2 -- never a
    traceback -- and a run's saved report is internally consistent."""

    @given(_MONITOR_ARGV)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exit_status_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + ["--save-json", str(path)])
            assert code in (0, 2), argv
            if code == 2:
                lines = err.getvalue().splitlines()
                assert sum(line.startswith("error:") for line in lines) == 1
                return
            report = load_report_json(path)
        meta = report.metadata
        if report.control is not None:
            assert ControlLedger.from_rows(report.control).conservation_ok(
                int(meta["adaptive_open_depth"]))
        printed = re.search(r"^injected faults: (\d+)$", out.getvalue(),
                            re.MULTILINE)
        injected = int(printed.group(1)) if printed else 0
        assert (printed is not None) == ("--faults" in argv)
        assert meta.get("injected_faults", 0.0) == injected


class TestRun:
    def test_run_fig9(self, capsys):
        assert main(["run", "fig9", "--seed", "0", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out

    def test_run_table1_with_overrides(self, capsys):
        assert main(["run", "table1", "--runs", "2", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "GFlops" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table99"])

    @pytest.mark.parametrize("argv,fragment", [
        (["fig5", "--runs", "2"],
         "--runs is only supported for trial-population experiments "
         "(fig4, fig6, fig8, table1, table2, table3), not 'fig5'"),
        (["table2", "--runs", "0"], "--runs must be >= 1, got 0"),
        (["table2", "--runs", "1", "--period-ms", "-5"],
         "--period-ms must be a positive sample period in milliseconds, "
         "got -5"),
        (["table2", "--runs", "1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["fig7", "--faults", "seed=1"],
         "--faults is only supported for trial-population experiments"),
    ])
    def test_run_validation_exits_2(self, capsys, argv, fragment):
        code = main(["run"] + argv + ["--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err

    def test_run_multiplex(self, capsys):
        assert main(["run", "multiplex", "--seed", "0", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out
        assert "time_enabled/time_running" in out

    def test_run_adaptive(self, capsys):
        assert main(["run", "adaptive", "--seed", "0", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "adaptive controller:" in out
        assert "adaptive dominates" in out


class TestLivePlane:
    def test_live_serves_and_report_is_clean(self, capsys, monkeypatch,
                                             tmp_path):
        """--live 0 binds an ephemeral port, announces the URL, serves
        all three endpoints during the run, and the report output
        (minus the announcement) matches a live-off run."""
        import json
        import urllib.request

        from repro.obs.live import server as live_server

        scraped = {}
        original_start = live_server.LiveServer.start

        def start_and_scrape(self):
            port = original_start(self)
            for endpoint in ("/metrics", "/healthz", "/runs"):
                with urllib.request.urlopen(self.url + endpoint,
                                            timeout=5.0) as response:
                    scraped[endpoint] = response.read().decode("utf-8")
            return port

        monkeypatch.setattr(live_server.LiveServer, "start",
                            start_and_scrape)
        assert main(["run", "table1", "--runs", "2", "--jobs", "4",
                     "--live", "0"]) == 0
        live_out = capsys.readouterr().out
        assert live_out.startswith("live telemetry at http://127.0.0.1:")
        assert "# TYPE live_snapshots_total counter" in scraped["/metrics"]
        assert "# TYPE hrtimer_fires_total counter" in scraped["/metrics"]
        assert json.loads(scraped["/healthz"])["status"] == "ok"
        assert "run" in json.loads(scraped["/runs"])

        assert main(["run", "table1", "--runs", "2", "--jobs", "4"]) == 0
        plain_out = capsys.readouterr().out
        assert live_out.split("\n", 1)[1] == plain_out

    @pytest.fixture(scope="class")
    def flight_run(self, tmp_path_factory):
        """``run table1 --flight`` at a given ``--jobs``, memoized:
        (stdout, dump path, dump document without its wall-clock
        stamp)."""
        import contextlib
        import io
        import json

        runs = {}

        def run(jobs):
            if jobs not in runs:
                path = tmp_path_factory.mktemp("flight") / "run.flight.json"
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["run", "table1", "--runs", "2",
                                 "--jobs", jobs, "--flight", str(path)]) == 0
                document = json.loads(path.read_text())
                del document["wall_time_s"]
                runs[jobs] = (out.getvalue(), path, document)
            return runs[jobs]

        return run

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_flight_dump_written_on_run_end(self, flight_run, jobs):
        """Trials in forked workers record into rings that fold back in
        trial order, so the dump matches the serial run's exactly."""
        out, path, document = flight_run(jobs)
        assert f"flight ring written to {path}" in out
        assert document["format"] == "repro-flight-v1"
        assert document["reason"] == "run-complete"
        assert document["events_recorded"] > 0
        assert document == flight_run("1")[2]

    def test_flight_dump_on_quarantine(self, capsys, tmp_path):
        """A quarantined trial triggers a mid-run flight dump (later
        overwritten by the run-end dump only if the run finishes; the
        quarantine reason must have been written at some point).  A
        serial trial records straight into the run's ring, so each
        quarantine dump already holds that trial's quarantine event."""
        import json

        from repro.obs.live import flight as flight_module

        dumps = []
        original_write = flight_module.FlightRecorder.write

        def spy_write(self, path, reason, extra=None):
            written = original_write(self, path, reason, extra)
            dumps.append(json.loads(written.read_text()))
            return written

        flight_path = tmp_path / "q.flight.json"
        try:
            flight_module.FlightRecorder.write = spy_write
            assert main(["run", "table1", "--runs", "3", "--jobs", "1",
                         "--faults", "seed=11,persistent=0.9",
                         "--flight", str(flight_path)]) == 0
        finally:
            flight_module.FlightRecorder.write = original_write
        reasons = [dump["reason"] for dump in dumps]
        quarantines = [dump for dump in dumps
                       if dump["reason"].startswith("quarantine:trial-")]
        assert quarantines, reasons
        for dump in quarantines:
            trial = int(dump["reason"].rsplit("-", 1)[1])
            assert any(event["name"] == "trial-quarantined"
                       and event["args"]["trial"] == trial
                       for event in dump["tracks"]["runner"]), dump["reason"]
        assert reasons[-1] == "run-complete"
        assert json.loads(flight_path.read_text())["reason"] \
            == "run-complete"

    def test_flight_dump_on_error_exit(self, capsys, tmp_path):
        """A failure inside the run exits 2 and still leaves the crash
        post-mortem behind."""
        import json

        path = tmp_path / "err.flight.json"
        assert main(["monitor", "--workload", "dgemm", "--faults",
                     "ioctl=1.0", "--flight", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"flight ring written to {path} (crash)" in err
        assert "error: K-LEB: transient ioctl('config') failure" in err
        assert json.loads(path.read_text())["reason"] == "crash"

    def test_trace_and_metrics_still_work_with_live(self, capsys,
                                                    tmp_path):
        trace = tmp_path / "t.json.gz"
        metrics = tmp_path / "m.prom.gz"
        assert main(["run", "table1", "--runs", "2", "--jobs", "4",
                     "--live", "0", "--trace", str(trace), "--metrics",
                     str(metrics)]) == 0
        from repro.io import load_metrics, load_trace_events

        assert load_trace_events(trace)
        assert "trials_total" in load_metrics(metrics)

    def test_adaptive_monitor_identical_with_live(self, capsys):
        args = ["monitor", "--workload", "matmul", "--tool", "k-leb",
                "--period-ms", "10", "--adapt", "--seed", "5"]
        assert main(args + ["--live", "0"]) == 0
        live_out = capsys.readouterr().out
        assert main(args) == 0
        plain_out = capsys.readouterr().out
        assert live_out.split("\n", 1)[1] == plain_out
