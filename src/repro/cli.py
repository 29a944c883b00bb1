"""Command-line front end.

Usage::

    kleb-repro list
    kleb-repro list-events [--kind arch|uarch]
    kleb-repro run table1 [--seed N] [--runs N] [--period-ms F]
    kleb-repro run-all [--quick]
    kleb-repro monitor --workload matmul --tool k-leb --period-ms 10
    kleb-repro monitor --tool k-leb --events L1D_MISSES,L2_MISSES,... \
        --multiplex 1.0
    kleb-repro monitor --workload matmul --cores 4 --migrate

``run`` executes one paper table/figure reproduction and prints the
paper-style text output; ``monitor`` runs a single monitored trial and
prints the report summary (handy for poking at the tools).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.timeseries import deltas, find_gaps, samples_to_series
from repro.control import ControlConfig, ControlLedger
from repro.errors import FaultError, PMUError, ReproError, UsageError
from repro.experiments import EXPERIMENTS, ExperimentEntry
from repro.hw import events as hw_events
from repro.experiments.report import sparkline, text_table
from repro.experiments.runner import run_monitored
from repro.experiments.smp import run_monitored_smp
from repro.faults import FaultInjector, FaultPlan, RunLedger
from repro.io import save_report_json, save_samples_csv
from repro.sim.clock import ms
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import available_tools, create_tool
from repro.workloads.dgemm import MklDgemm
from repro.workloads.linpack import LinpackWorkload
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter

_WORKLOADS = {
    "matmul": lambda: TripleLoopMatmul(1024),
    "dgemm": lambda: MklDgemm(),
    "linpack": lambda: LinpackWorkload(5000),
    "secret-printer": SecretPrinter,
    "meltdown": MeltdownAttack,
}

# Small-parameter overrides for `run-all --quick`.
_QUICK_KWARGS = {
    "table1": {"trials": 3},
    "table2": {"runs": 5},
    "table3": {"runs": 5},
    "fig4": {"trials": 3},
    "fig5": {"iterations": 8, "cross_platform": False},
    "fig6": {"rounds": 3},
    "fig7": {},
    "fig8": {"runs": 5},
    "fig9": {},
    "crosscheck": {},
    "multiplex": {"n": 128, "rotation_periods_ns": (ms(1), ms(0.5), ms(0.2))},
    "adaptive": {"phase_instructions": (60e6, 45e6, 70e6, 50e6)},
    "smp": {"cores": 2, "service_accesses": 60_000,
            "streamer_accesses": 80_000},
}


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _faults_arg(value: str) -> FaultPlan:
    try:
        return FaultPlan.parse(value)
    except FaultError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


_FAULTS_HELP = (
    "fault-injection spec, e.g. seed=7,starve=0.3,crash=0.1 "
    "(keys: seed, timer_jitter, timer_jitter_ns, timer_miss, ioctl, "
    "read, squeeze, squeeze_factor, squeeze_fires, starve, "
    "starve_factor, pmu_wrap, crash, timeout, persistent)"
)

_TRACE_HELP = ("record a Chrome trace-event file (Perfetto-loadable; "
               ".jsonl suffix selects JSONL; .gz suffix gzips)")
_METRICS_HELP = ("record a metrics file (Prometheus text; .json suffix "
                 "selects the JSON document; .gz suffix gzips)")
_LIVE_HELP = ("serve live run telemetry over loopback HTTP on PORT "
              "(default 9137): /metrics (Prometheus), /healthz "
              "(watchdog; 503 = degraded), /runs (JSON); watch with "
              "`python -m repro.obs.top`")
_FLIGHT_HELP = ("keep a bounded flight-recorder ring of recent trace "
                "events and dump it to PATH on quarantines, watchdog "
                "trips, crashes, and run end")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help=_TRACE_HELP)
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help=_METRICS_HELP)
    parser.add_argument("--live", nargs="?", type=int, default=None,
                        const=-1, metavar="PORT", help=_LIVE_HELP)
    parser.add_argument("--flight", default=None, metavar="PATH",
                        help=_FLIGHT_HELP)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleb-repro",
        description="K-LEB (IISWC 2020) reproduction on a simulated machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures")

    events_parser = sub.add_parser(
        "list-events", help="list the hardware event catalogue")
    events_parser.add_argument(
        "--kind", choices=("arch", "uarch"), default=None,
        help="only architectural / microarchitectural events")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--runs", type=int, default=None,
                            help="override run/trial/round count")
    run_parser.add_argument("--period-ms", type=float, default=None,
                            help="override the sample period")
    run_parser.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                            help="worker processes for trial populations "
                                 "(default: all cores)")
    run_parser.add_argument("--faults", type=_faults_arg, default=None,
                            metavar="SPEC", help=_FAULTS_HELP)
    _add_obs_args(run_parser)

    all_parser = sub.add_parser("run-all", help="run every experiment")
    all_parser.add_argument("--quick", action="store_true",
                            help="small populations for a fast pass")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                            help="worker processes for trial populations "
                                 "(default: all cores)")
    all_parser.add_argument("--faults", type=_faults_arg, default=None,
                            metavar="SPEC",
                            help=_FAULTS_HELP + " (trial experiments only)")
    _add_obs_args(all_parser)

    monitor = sub.add_parser("monitor", help="one monitored trial")
    monitor.add_argument("--workload", choices=sorted(_WORKLOADS),
                         default="matmul")
    monitor.add_argument("--tool", choices=available_tools(),
                         default="k-leb")
    monitor.add_argument("--period-ms", type=float, default=10.0)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--events", default="LOADS,STORES,BRANCHES,LLC_MISSES",
                         help="comma-separated catalogue names "
                              "(see `list-events`); more events than "
                              "counters needs --multiplex")
    monitor.add_argument("--multiplex", type=float, default=None,
                         metavar="MS",
                         help="rotate event groups every MS milliseconds "
                              "(k-leb only); totals become scaled estimates")
    monitor.add_argument("--adapt", action="store_true",
                         help="close the loop: adapt the sampling period "
                              "and drain batches online (k-leb only)")
    monitor.add_argument("--cores", type=int, default=None, metavar="N",
                         help="run on an N-core SMP cluster with per-core "
                              "PMUs and a merged per-CPU sample ring "
                              "(k-leb only)")
    monitor.add_argument("--sockets", type=int, default=1, metavar="M",
                         help="spread --cores evenly over M sockets, one "
                              "uncore PMU each (default 1)")
    monitor.add_argument("--migrate", action="store_true",
                         help="enable seeded CPU migration of the "
                              "monitored task (requires --cores >= 2)")
    monitor.add_argument("--overhead-budget", type=float, default=None,
                         metavar="PCT",
                         help="overhead budget for --adapt as a percentage "
                              "of victim cycles, in (0, 100] (default 2)")
    monitor.add_argument("--save-json", default=None, metavar="PATH",
                         help="write the full report as JSON")
    monitor.add_argument("--save-csv", default=None, metavar="PATH",
                         help="write the sample series as CSV (K-LEB log layout)")
    monitor.add_argument("--faults", type=_faults_arg, default=None,
                         metavar="SPEC", help=_FAULTS_HELP)
    _add_obs_args(monitor)
    return parser


def _single_run(args: argparse.Namespace) -> bool:
    return EXPERIMENTS[args.experiment].count_param is None


_POPULATIONS = ", ".join(sorted(
    experiment_id for experiment_id, entry in EXPERIMENTS.items()
    if entry.count_param is not None))

_Rule = Tuple[Callable[[argparse.Namespace], bool], str]

_SEED_RULE: _Rule = (lambda a: a.seed < 0,
                     "--seed must be >= 0, got {a.seed}")
_PERIOD_RULE: _Rule = (
    lambda a: a.period_ms is not None and not 0 < a.period_ms < math.inf,
    "--period-ms must be a positive sample period in milliseconds, "
    "got {a.period_ms:g}")

#: Flag rules per command, checked in order before any simulation: the
#: first rule whose predicate holds rejects the command (exit 2) with
#: its message, a ``str.format`` template over ``a`` (the parsed args).
_RULES: Dict[str, List[_Rule]] = {
    "run": [
        _SEED_RULE,
        _PERIOD_RULE,
        (lambda a: a.runs is not None and a.runs < 1,
         "--runs must be >= 1, got {a.runs}"),
        (lambda a: a.runs is not None and _single_run(a),
         "--runs is only supported for trial-population experiments "
         "({populations}), not {a.experiment!r}"),
        (lambda a: a.faults is not None and _single_run(a),
         "--faults is only supported for trial-population experiments "
         "({populations}), not {a.experiment!r}"),
    ],
    "run-all": [_SEED_RULE],
    "monitor": [
        _SEED_RULE,
        _PERIOD_RULE,
        (lambda a: a.multiplex is not None
         and not 0 < a.multiplex < math.inf,
         "--multiplex must be a positive rotation period in milliseconds, "
         "got {a.multiplex:g}"),
        (lambda a: a.overhead_budget is not None and not a.adapt,
         "--overhead-budget requires --adapt"),
        (lambda a: a.overhead_budget is not None
         and not 0.0 < a.overhead_budget <= 100.0,
         "--overhead-budget must be in (0, 100] percent, "
         "got {a.overhead_budget:g}"),
        (lambda a: a.multiplex is not None and a.tool != "k-leb",
         "--multiplex is only supported by the k-leb tool, not {a.tool!r}"),
        (lambda a: a.adapt and a.tool != "k-leb",
         "--adapt is only supported by the k-leb tool, not {a.tool!r}"),
        (lambda a: a.cores is None and a.migrate,
         "--migrate requires --cores"),
        (lambda a: a.cores is None and a.sockets != 1,
         "--sockets requires --cores"),
        # A non-positive geometry must die with a diagnostic, not a
        # stack trace (and never a silently desynchronized cluster).
        (lambda a: a.cores is not None and a.cores < 1,
         "--cores must be >= 1, got {a.cores}"),
        (lambda a: a.cores is not None and a.sockets < 1,
         "--sockets must be >= 1, got {a.sockets}"),
        (lambda a: a.cores is not None and a.cores % a.sockets,
         "--cores ({a.cores}) must divide evenly across --sockets "
         "({a.sockets})"),
        (lambda a: a.cores is not None and a.migrate and a.cores < 2,
         "--migrate needs --cores >= 2"),
        (lambda a: a.cores is not None and a.tool != "k-leb",
         "--cores is only supported by the k-leb tool, not {a.tool!r}"),
        (lambda a: a.cores is not None and a.multiplex is not None,
         "--multiplex is not supported on an SMP session (--cores)"),
        (lambda a: a.cores is not None and a.adapt,
         "--adapt is not supported on an SMP session (--cores)"),
    ],
}


def _events(args: argparse.Namespace) -> Tuple[str, ...]:
    return tuple(part.strip() for part in args.events.split(",") if part)


def _check(args: argparse.Namespace) -> None:
    """Reject an unusable flag combination with a :class:`UsageError`."""
    if args.command == "monitor":
        try:
            for name in _events(args):
                hw_events.lookup(name)
        except PMUError as error:
            # A typo'd event name gets the suggestion plus the catalogue
            # grouped by kind, not a stack trace.
            raise UsageError(f"{error}\n\n{_catalogue_table()}") from None
    for violated, message in _RULES.get(args.command, ()):
        if violated(args):
            raise UsageError(message.format(a=args, populations=_POPULATIONS))


def _run_experiment(entry: ExperimentEntry, args: argparse.Namespace,
                    **overrides) -> str:
    """Run one registry entry under the shared flags; returns its text.

    Trial populations take ``--jobs`` and ``--faults`` (and append the
    fault ledger); single-run comparisons ignore ``--jobs`` and run
    clean.
    """
    kwargs = dict(overrides, seed=args.seed)
    ledger: Optional[RunLedger] = None
    if entry.count_param is not None:
        kwargs["jobs"] = args.jobs  # None = all cores (resolve_jobs)
        if args.faults is not None:
            ledger = RunLedger()
            kwargs.update(faults=args.faults, fault_ledger=ledger)
    output = entry.render(entry.run(**kwargs))
    if ledger is not None:
        output += "\n\n" + ledger.render()
    return output


def _cmd_list(args: argparse.Namespace) -> None:
    rows = [[entry.experiment_id, entry.description]
            for entry in EXPERIMENTS.values()]
    print(text_table(["id", "description"], rows,
                     title="Reproducible tables and figures"))


_KIND_FLAGS = {"arch": hw_events.EventKind.ARCHITECTURAL,
               "uarch": hw_events.EventKind.MICROARCHITECTURAL}


def _catalogue_table(kind: Optional[str] = None) -> str:
    """The event catalogue grouped by kind, as printable text."""
    sections = []
    for flag, event_kind in _KIND_FLAGS.items():
        if kind is not None and flag != kind:
            continue
        group = hw_events.events_by_kind()[event_kind]
        rows = [[event.name, f"{event.code:#06x}",
                 f"{event.counter_mask:#06b}"
                 if event.fixed_counter is None
                 else f"fixed{event.fixed_counter}",
                 event.description]
                for event in group]
        sections.append(text_table(
            ["event", "code", "counters", "description"], rows,
            title=f"{event_kind.value} events ({len(rows)})"))
    return "\n\n".join(sections)


def _cmd_list_events(args: argparse.Namespace) -> None:
    print(_catalogue_table(args.kind))


def _cmd_run(args: argparse.Namespace) -> None:
    entry = EXPERIMENTS[args.experiment]
    overrides = {}
    if args.runs is not None:
        overrides[entry.count_param] = args.runs
    if args.period_ms is not None:
        overrides["period_ns"] = ms(args.period_ms)
    print(_run_experiment(entry, args, **overrides))


def _cmd_run_all(args: argparse.Namespace) -> None:
    for experiment_id, entry in EXPERIMENTS.items():
        overrides = _QUICK_KWARGS[experiment_id] if args.quick else {}
        print(_run_experiment(entry, args, **overrides))
        print("\n" + "#" * 72 + "\n")


def _monitor_tool(args: argparse.Namespace):
    """The single-core tool: K-LEB with mux/control knobs, or by name."""
    if args.multiplex is None and not args.adapt:
        return create_tool(args.tool)
    control = None
    if args.adapt:
        control = (ControlConfig() if args.overhead_budget is None
                   else ControlConfig(
                       overhead_budget_percent=args.overhead_budget))
    return KLebTool(
        multiplex_period_ns=(ms(args.multiplex)
                             if args.multiplex is not None else None),
        control=control,
    )


_RECOVERY_KEYS = ("timer_misses", "ioctl_retries", "read_retries",
                  "recovery_reads", "drain_shrinks", "drain_restores",
                  "starved_cycles")


def _cmd_monitor(args: argparse.Namespace) -> None:
    """One monitored trial: one core, or an N-core cluster (``--cores``)."""
    program = _WORKLOADS[args.workload]()
    events = _events(args)
    # A single in-process trial: kernel-layer faults apply; the
    # trial-level crash/timeout knobs only matter under `run`.
    injector = (FaultInjector(args.faults) if args.faults is not None
                else None)
    smp = args.cores is not None
    if smp:
        result = run_monitored_smp(
            program, events=events, period_ns=ms(args.period_ms),
            seed=args.seed, cores=args.cores, sockets=args.sockets,
            migrate=args.migrate, faults=injector,
        )
    else:
        result = run_monitored(
            program, _monitor_tool(args), events=events,
            period_ns=ms(args.period_ms), seed=args.seed, faults=injector,
        )
    report = result.report
    meta = report.metadata
    print(f"workload : {program.name}")
    print(f"tool     : {report.tool} @ {report.period_ns / 1e6:g} ms")
    if smp:
        print(f"topology : {args.cores} core(s), {args.sockets} socket(s)"
              f"{', migration on' if args.migrate else ''}")
    print(f"wall time: {result.wall_ns / 1e9:.6f} s")
    print(f"samples  : {report.sample_count}")
    if smp:
        print(f"migrations: {meta.get('smp_migrations', 0):g}")
    rows = [[name, f"{value:,.0f}"]
            for name, value in sorted(report.totals.items())]
    print(text_table(["event", "total"], rows))
    if smp:
        per_cpu = [[f"cpu{cpu}"] + [
            f"{meta.get(f'smp_cpu{cpu}:{name}', 0.0):,.0f}"
            for name in events]
            for cpu in range(args.cores)]
        print(text_table(["core"] + list(events), per_cpu,
                         title="per-core victim totals"))
        for socket, (bandwidth, totals) in enumerate(zip(
                result.uncore_bandwidth_bytes_per_sec, result.uncore_totals)):
            counts = ", ".join(f"{name}={value:,d}"
                               for name, value in sorted(totals.items()))
            print(f"uncore[{socket}]: {bandwidth / 1e6:,.1f} MB/s smoothed "
                  f"({counts})")
    series = deltas(samples_to_series(report.samples))
    for name in events:
        if len(series) and name in series.values:
            print(f"{name:16s} {sparkline(series.event(name))}")
    if report.control is not None:
        print(f"\nadaptive control: "
              f"{meta.get('adaptive_observations', 0):g} observations, "
              f"period {meta.get('adaptive_min_period_ns', 0) / 1e6:g}.."
              f"{meta.get('adaptive_max_period_ns', 0) / 1e6:g} ms, "
              f"overhead {meta.get('adaptive_overhead_percent', 0):.2f}% "
              f"(budget {meta.get('adaptive_budget_percent', 0):g}%), "
              f"final level {meta.get('adaptive_final_level', 0):g}")
        ledger_view = ControlLedger.from_rows(report.control)
        if len(ledger_view):
            print(ledger_view.render())
    if injector is not None:
        records = injector.ledger.records
        print(f"\ninjected faults: {len(records)}")
        for record in records[:20]:
            print(f"  {record.time_ns:>14,d} ns  {record.site:10s} "
                  f"{record.kind}")
        if len(records) > 20:
            print(f"  ... and {len(records) - 20} more")
        recovered = {key: meta[key] for key in _RECOVERY_KEYS
                     if meta.get(key)}
        if recovered:
            print("recovery: " + ", ".join(
                f"{key}={value:g}" for key, value in recovered.items()
            ))
        gaps = find_gaps(samples_to_series(report.samples),
                         report.period_ns)
        if gaps:
            total_missing = sum(gap.missing for gap in gaps)
            print(f"sample gaps: {len(gaps)} "
                  f"(~{total_missing} samples missing)")
            for gap in gaps[:10]:
                print(f"  {gap.start_ns:>14,d} -> {gap.end_ns:,d} ns "
                      f"(~{gap.missing} missing)")
    if args.save_json:
        save_report_json(report, args.save_json)
        print(f"report written to {args.save_json}")
    if args.save_csv:
        save_samples_csv(report, args.save_csv)
        print(f"samples written to {args.save_csv}")


def _arm_live_plane(recorder, args, flight, dump_path: str):
    """Build and start the live telemetry plane around ``recorder``.

    Returns ``(bus, server)`` — both started; the caller owns shutdown.
    The bus (and its fork-inherited queue) must exist before any worker
    pool forks, which is why this runs before the command dispatch.
    """
    from repro.obs.live import (
        LivePublisher,
        LiveServer,
        LiveState,
        SnapshotBus,
        Watchdog,
    )
    from repro.obs.live.server import DEFAULT_PORT

    label = str(getattr(args, "experiment", None) or args.command)
    # Seed the state with the pre-registered all-zero registry so
    # /metrics exposes every family from the very first scrape.
    state = LiveState(base_metrics=recorder.registry.to_json(),
                      run_label=label)
    watchdog = Watchdog(
        flight=flight,
        on_trip=lambda check, detail: flight.write(
            dump_path, f"watchdog:{check}", {"detail": detail}),
    )
    state.add_listener(watchdog.observe)

    def _dump_on_quarantine(snapshot) -> None:
        if snapshot.status == "quarantined":
            flight.write(dump_path,
                         f"quarantine:trial-{snapshot.trial}")

    state.add_listener(_dump_on_quarantine)
    bus = SnapshotBus(state)
    publisher = LivePublisher(bus)
    publisher.bind(recorder)
    recorder.publisher = publisher
    bus.start()
    server = None
    if getattr(args, "live", None) is not None:
        port = args.live if args.live >= 0 else DEFAULT_PORT
        server = LiveServer(state, watchdog, port=port)
        server.start()
        print(f"live telemetry at {server.url}  "
              f"(/metrics /healthz /runs; `python -m repro.obs.top"
              f" --url {server.url}`)")
    return bus, server


_COMMANDS = {"list": _cmd_list, "list-events": _cmd_list_events,
             "run": _cmd_run, "run-all": _cmd_run_all,
             "monitor": _cmd_monitor}


def _run_observed(args: argparse.Namespace) -> None:
    """Dispatch the command under the observability flags it asked for."""
    # Observability is off (null recorder, zero cost) unless asked for.
    wants_artifacts = bool(getattr(args, "trace", None)
                           or getattr(args, "metrics", None))
    live_armed = (getattr(args, "live", None) is not None
                  or getattr(args, "flight", None) is not None)
    recorder = None
    flight = bus = server = None
    flight_dump_path = getattr(args, "flight", None) or "repro.flight.json"
    if wants_artifacts or live_armed:
        from repro.obs import hooks as obs_hooks

        if live_armed:
            from repro.obs.live import FlightRecorder

            flight = FlightRecorder()
        # Pure --live/--flight runs keep the tracer non-retaining: the
        # flight ring sees every event at O(ring) memory, nothing more.
        recorder = obs_hooks.Recorder(trace=wants_artifacts, flight=flight)
        if live_armed:
            bus, server = _arm_live_plane(recorder, args, flight,
                                          flight_dump_path)
        obs_hooks.install(recorder)
    try:
        _COMMANDS[args.command](args)
    except BaseException as error:
        if flight is not None:
            # The post-mortem the flight recorder exists for.
            flight.write(flight_dump_path, "crash",
                         {"error": repr(error)})
            print(f"flight ring written to {flight_dump_path} (crash)",
                  file=sys.stderr)
        raise
    finally:
        if bus is not None:
            bus.stop()
        if server is not None:
            server.stop()
        if recorder is not None:
            from repro.obs import hooks as obs_hooks

            obs_hooks.reset()
    if recorder is not None:
        if args.trace:
            recorder.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            recorder.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
        if getattr(args, "flight", None):
            flight.write(args.flight, "run-complete")
            print(f"flight ring written to {args.flight}")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns 0, or 2 for a rejected or failed command.

    Every :class:`ReproError` — a flag rule, a typo'd event, a failure
    inside the simulation — becomes one ``error:`` line on stderr and
    exit status 2 here; any other exit status is a bug.
    """
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        _run_observed(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
