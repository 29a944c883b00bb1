"""One workload in one fresh process (started by ``python -m benchmarks.e2e``).

Modes:

``setup``  build the inputs, warm up, report the set-up time, exit;
``run``    set up, then run timed passes until ``--seconds`` have passed
           (at least ``--min-passes``), and report the end-to-end metrics;
``trace``  install the layer wrappers *first*, set up, calibrate the
           wrapper cost, run one traced pass, remove the wrappers, and
           report the per-layer metrics and a Chrome trace.

Set-up time runs from ``--launched-at`` (the parent's ``time.monotonic()``
just before it started this process, a system-wide clock on Linux) to the
end of the warm-up, so it covers interpreter start and imports.  Like
every host time here it is normalized by the host-speed probes of
:mod:`benchmarks.e2e.hostspeed`.

The only line this process writes to stdout is ``E2E-RESULT <json>``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from benchmarks.e2e import hostspeed

RESULT_PREFIX = "E2E-RESULT "


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end_metrics(passes, pass_seconds: List[float],
                       tail_percentile: int) -> Dict[str, float]:
    trial_ms = [record.host_s * 1e3 for result in passes
                for record in result.records]
    sim_rates = [
        sum(record.sim_wall_ns for record in result.records) / 1e6 / seconds
        for result, seconds in zip(passes, pass_seconds)
    ]
    return {
        "wall_s": statistics.median(pass_seconds),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_tail": percentile(trial_ms, tail_percentile),
        "sim_ms_per_s": statistics.median(sim_rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def mismatches(digests: List[str], reference: List[str]) -> int:
    """Outcomes that differ from ``reference``, position by position."""
    differing = sum(a != b for a, b in zip(digests, reference))
    return differing + abs(len(digests) - len(reference))


def emit(document: Dict[str, object]) -> None:
    sys.stdout.write(RESULT_PREFIX + json.dumps(document) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        default="run")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=5)
    parser.add_argument("--launched-at", type=float, default=None)
    parser.add_argument("--expected", default=None,
                        help="JSON file of expected digests per workload")
    parser.add_argument("--untraced-wall", type=float, default=None)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    launched = (args.launched_at if args.launched_at is not None
                else time.monotonic())
    # Set-up runs on one CPU, probed before the heavy imports start.
    cpus = os.sched_getaffinity(0)
    hostspeed.pin_to_one_cpu()
    probe_started = time.monotonic()
    first_probe = hostspeed.settled_probe_ns()
    probe_s = time.monotonic() - probe_started

    from benchmarks.e2e.workloads import WORKLOADS

    workload_class = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        # Before any simulator object exists: inputs, warm-up and pass
        # all run through the wrappers.
        from benchmarks.e2e.tracing import LayerTracer
        tracer = LayerTracer()
        tracer.install(extra_modules=("benchmarks.e2e.workloads",))

    workload = workload_class(args.seed, smoke=args.smoke)
    workload.warm_up()
    setup_raw = time.monotonic() - launched - probe_s
    setup_s = setup_raw * hostspeed.scale(first_probe,
                                          hostspeed.settled_probe_ns())
    document: Dict[str, object] = {"setup_s": setup_s,
                                   "setup_raw_s": setup_raw}
    if args.mode == "setup":
        emit(document)
        return 0
    probe = hostspeed.probe_ns
    if getattr(workload_class, "jobs", 1) > 1:
        # Pool trials run on every CPU: free the process, probe them all.
        os.sched_setaffinity(0, cpus)
        probe = hostspeed.probe_all_cpus_ns
    if tracer is not None:
        document.update(traced_pass(args, tracer, workload, probe))
        emit(document)
        return 0

    expected: Optional[List[str]] = None
    if args.expected:
        with open(args.expected, encoding="utf-8") as handle:
            expected = json.load(handle)[args.workload]
    passes, pass_seconds = [], []
    started = time.perf_counter()
    while (len(passes) < args.min_passes
           or time.perf_counter() - started < args.seconds):
        passes.append(timed_pass(workload, probe))
        pass_seconds.append(passes[-1].seconds)
        # Keep records only: result objects would pile up across passes.
        passes[-1].payloads.clear()
    first = passes[0].digests
    reference = expected if expected is not None else first
    mismatched = sum(mismatches(result.digests, reference)
                     for result in passes)
    attempted = sum(result.attempted for result in passes)
    raised = sum(result.failed for result in passes)
    document.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": min(attempted, raised + mismatched),
        "mismatched": mismatched,
        "digests": first,
        "deterministic": all(result.digests == first for result in passes),
        "pass_seconds": pass_seconds,
        "raw_wall_s": statistics.median(result.raw_seconds
                                        for result in passes),
        "metrics": end_to_end_metrics(passes, pass_seconds,
                                      workload.tail_percentile),
    })
    emit(document)
    return 0


def timed_pass(workload, probe):
    """One pass, starting with a full collection timed as part of it.

    Starting every pass from a collected heap makes the collector's
    full collections land on the same trials in every pass.  Left to
    drift they hit about one smp_migrate trial in five, and its p75
    flips between the two modes from run to run.
    """
    from benchmarks.e2e.workloads import PassResult

    result = PassResult(probe=probe)
    result.timed(gc.collect)
    return workload.run_pass(result)


def _traced_pass(tracer, workload, probe):
    """One unprobed pass under the tracer; returns the result, its raw
    wall in ns and the host-speed factor measured around it."""
    from benchmarks.e2e.workloads import PassResult

    gc.collect()
    before = probe()
    tracer.reset()
    start = time.perf_counter_ns()
    result = workload.run_pass(PassResult(probe=None))
    wall_ns = time.perf_counter_ns() - start
    return result, wall_ns, hostspeed.scale(before, probe())


def traced_pass(args, tracer, workload, probe) -> Dict[str, object]:
    from benchmarks.e2e.tracing import calibrate, expectation_failures

    calibration = calibrate()
    result, wall_ns, factor = _traced_pass(tracer, workload, probe)
    processes = [(args.workload, tracer.spans[:])]
    accounting = tracer.accounting_error(wall_ns)
    payloads = result.payloads
    summary_bytes = (sum(len(pickle.dumps(payload)) for payload in payloads)
                     / len(payloads)) if payloads else 0.0
    # Both walls at reference host speed, so contention cancels.
    untraced = args.untraced_wall or wall_ns * factor / 1e9
    metrics = tracer.layer_metrics(wall_ns, calibration,
                                   untraced / factor, summary_bytes)
    problems = expectation_failures(args.workload, metrics)
    twin_lines: List[str] = []
    twin = getattr(workload, "twin", None)
    if twin is not None:
        # Pool workers' spans die with them; the in-process twin shows
        # where their time goes.
        twin_result, twin_ns, _ = _traced_pass(tracer, twin(), probe)
        processes.append((f"{args.workload} jobs=1 twin", tracer.spans[:]))
        twin_lines = tracer.layer_summary(twin_ns, calibration)
        if twin_result.digests != result.digests:
            problems.append("the jobs=1 twin's outcome differs")
    leftovers = tracer.uninstall()

    if accounting > 0.01:
        problems.append(f"self times miss the traced wall by "
                        f"{accounting:.2%}")
    problems += [f"wrapper left installed: {name}" for name in leftovers]
    if metrics["trace.unattributed_share"] > 0.10:
        problems.append("more than 10% of the traced wall is unattributed")
    if args.trace_file:
        tracer.write_chrome_trace(args.trace_file, processes)
    return {
        "passes": 1,
        "attempted": result.attempted,
        "failed": result.failed,
        "digests": result.digests,
        "deterministic": True,
        "calibration_ns": [calibration.inside_ns, calibration.outside_ns],
        "spans": sum(len(spans) // 3 for _, spans in processes),
        "twin": twin_lines,
        "problems": problems,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
