"""CLI for the hot-path benchmark suite.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf                 # full suite
    PYTHONPATH=src python -m benchmarks.perf --quick         # CI smoke
    PYTHONPATH=src python -m benchmarks.perf --quick \
        --check BENCH_hotpath.json --tolerance 0.25          # regression gate

The suite writes ``BENCH_hotpath.json`` (``--output`` to override)
containing the measured numbers, the committed pre-optimization
baseline (``benchmarks/perf/baseline.json``), and the speedup against
it.  ``--check`` compares the fresh run's *calibrated* ratios (see
``suite.py``) against a previously committed result file and exits
non-zero on a regression beyond ``--tolerance`` (default 25 %).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Dict

from benchmarks.perf.suite import run_suite

BASELINE_PATH = Path(__file__).parent / "baseline.json"
DEFAULT_OUTPUT = Path(__file__).parent.parent.parent / "BENCH_hotpath.json"

# Benchmarks whose calibrated ratio the regression gate inspects.
# Calibration itself is the yardstick and end-to-end is covered by the
# committed speedup numbers; the micros are the sensitive detectors.
# ``trace_replay_fresh`` is allocation-bound: its calibrated ratio
# spreads about +-25 % between runs on a shared host, as wide as the
# tolerance, so CI checks its ``retained_plans`` instead.
# ``machine_build`` has no committed reference yet; CI checks its
# ``allocated_sets``.  ``trace_plan_compile`` has none either, and
# stays out until the gate compares paired runs; CI only requires that
# it ran.
CHECKED = ("pmu_accumulate", "pmu_epoch_accumulate", "event_queue",
           "hrtimer_rearm", "trace_replay", "trace_replay_batch",
           "ringbuffer_drain_columnar", "ringbuffer_merge_drain",
           "end_to_end_table2_fig7")

# Hard caps on the same-process on/off ratios: full tracing+metrics
# may slow the monitored end-to-end path by at most 15 %, and an armed
# but never-actuating adaptive controller is held to the same bound.
# Unlike the calibrated comparisons these are absolute bounds — both
# halves are measured in the same process, so the ratio needs no
# committed reference to be meaningful.
OBS_OVERHEAD_CAP = 1.15
OVERHEAD_CAPS = {
    "obs_overhead": OBS_OVERHEAD_CAP,
    "adaptive_overhead": 1.15,
    # The armed-but-idle live telemetry plane (bus + publisher + HTTP
    # server, no scrapers) is held to the same bound.
    "live_overhead": 1.15,
}


def _load_baseline(quick: bool) -> Dict:
    if not BASELINE_PATH.exists():
        return {}
    document = json.loads(BASELINE_PATH.read_text())
    return document.get("quick" if quick else "full", {})


def _speedups(current: Dict[str, Dict[str, float]],
              baseline: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    speedups: Dict[str, float] = {}
    for name, metrics in current.items():
        base = baseline.get(name)
        if not base or name == "calibration":
            continue
        if metrics["ns_per_op"] > 0:
            speedups[name] = base["ns_per_op"] / metrics["ns_per_op"]
    return speedups


def _check(current: Dict[str, Dict[str, float]], committed_path: Path,
           tolerance: float) -> int:
    """Regression gate: fresh calibrated ratios vs a committed run."""
    try:
        committed = json.loads(committed_path.read_text())["results"]
    except (OSError, KeyError, json.JSONDecodeError) as error:
        print(f"cannot read committed results {committed_path}: {error}",
              file=sys.stderr)
        return 2
    failures = []
    for name in CHECKED:
        fresh = current.get(name, {}).get("calibrated")
        base = committed.get(name, {}).get("calibrated")
        if fresh is None or base is None or base <= 0:
            # A micro added since the committed file was refreshed has
            # no reference yet; say so instead of silently passing it.
            print(f"  {name:28s} skipped (no committed reference)")
            continue
        regression = fresh / base - 1.0
        status = "REGRESSION" if regression > tolerance else "ok"
        print(f"  {name:28s} calibrated {base:10.2f} -> {fresh:10.2f} "
              f"({regression:+7.1%}) {status}")
        if regression > tolerance:
            failures.append(name)
            # Raw numbers for the failing micro: the calibrated ratio
            # says *that* it regressed; ns/op against the committed
            # run (and both runs' calibration yardsticks) says whether
            # the simulator or the host yardstick moved.
            fresh_ns = current.get(name, {}).get("ns_per_op", 0.0)
            base_ns = committed.get(name, {}).get("ns_per_op", 0.0)
            fresh_cal = current.get("calibration", {}).get("ns_per_op", 0.0)
            base_cal = committed.get("calibration", {}).get("ns_per_op", 0.0)
            print(f"      committed {base_ns:14.1f} ns/op "
                  f"(calibration {base_cal:8.2f} ns/op)")
            print(f"      fresh     {fresh_ns:14.1f} ns/op "
                  f"(calibration {fresh_cal:8.2f} ns/op)")
    for name, cap in OVERHEAD_CAPS.items():
        overhead = current.get(name, {}).get("overhead_ratio")
        if overhead is None:
            continue
        status = "REGRESSION" if overhead > cap else "ok"
        print(f"  {name:28s} on/off ratio "
              f"{overhead:10.3f} (cap {cap:.2f}) {status}")
        if overhead > cap:
            failures.append(name)
    if failures:
        print(f"FAIL: {len(failures)} benchmark(s) regressed beyond "
              f"{tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"regression gate passed (tolerance {tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf",
                                     description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke mode)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="result JSON path (default: repo-root "
                             "BENCH_hotpath.json)")
    parser.add_argument("--check", type=Path, default=None,
                        help="committed result file to gate regressions "
                             "against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed calibrated-ratio regression "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    if (args.check is not None
            and args.check.resolve() == args.output.resolve()):
        print("--check must point at a previously committed result file, "
              "not this run's --output (the gate would compare the run "
              "to itself)", file=sys.stderr)
        return 2

    mode = "quick" if args.quick else "full"
    print(f"running hot-path suite ({mode} mode)...")
    results = run_suite(quick=args.quick)
    for name, metrics in results.items():
        print(f"  {name:28s} {metrics['seconds']:8.3f}s  "
              f"{metrics['ns_per_op']:12.1f} ns/op  "
              f"calibrated {metrics['calibrated']:10.2f}")
    overhead = results["obs_overhead"]["overhead_ratio"]
    print(f"  observability on/off overhead ratio: {overhead:.3f}")
    adaptive = results["adaptive_overhead"]["overhead_ratio"]
    print(f"  adaptive-armed on/off overhead ratio: {adaptive:.3f}")
    live = results["live_overhead"]["overhead_ratio"]
    print(f"  live-plane-armed on/off overhead ratio: {live:.3f}")
    retained = results["trace_replay_fresh"]["retained_plans"]
    print(f"  fresh-trace plans retained after replay: {retained:.0f}")
    allocated = results["machine_build"]["allocated_sets"]
    print(f"  cache sets held by a fresh machine: {allocated:.0f}")
    period = results["trace_replay_batch"]["period"]
    print(f"  Flush+Reload round found in the attack tile: {period:.0f} ops")

    baseline = _load_baseline(args.quick)
    document = {
        "schema": 1,
        "mode": mode,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": results,
        "pre_optimization_baseline": baseline,
        "speedup_vs_pre_optimization": _speedups(results, baseline),
    }
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {args.output}")
    end_to_end = document["speedup_vs_pre_optimization"].get(
        "end_to_end_table2_fig7")
    if end_to_end is not None:
        print(f"end-to-end table2+fig7 speedup vs pre-optimization "
              f"baseline: {end_to_end:.2f}x")

    if args.check is not None:
        return _check(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
