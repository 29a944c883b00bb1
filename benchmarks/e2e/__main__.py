"""``python -m benchmarks.e2e``: run the end-to-end benchmark, or compare runs.

Run (from the repository root)::

    python -m benchmarks.e2e                        # every workload, seed 0
    python -m benchmarks.e2e --workload smp_migrate --seed 3 --trace 1

Each workload runs in fresh worker processes (:mod:`benchmarks.e2e.worker`):
three starts measure set-up, the last of them goes on to the timed
passes.  ``--trace 1`` instead runs one untraced reference process and
one traced process and reports the per-layer metrics.  Every run prints
a ``# e2e ...`` header, one line per metric, and a last line of JSON::

    {"correct": true, "attempted": 420, "failed": 0, "metrics": {...}}

Compare saved runs (files alternate parent, change, parent, change...)::

    python -m benchmarks.e2e compare P1.txt C1.txt P2.txt C2.txt ...

Re-record the committed seed-0 digests (only when simulated behaviour
is meant to change)::

    python -m benchmarks.e2e record-digests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
EXPECTED_FILE = PACKAGE_DIR / "expected_seed0.json"
OUTPUT_DIR = ROOT / ".bench_e2e"
RESULT_PREFIX = "E2E-RESULT "
SETUP_STARTS = 3
# A single-workload run must end well inside the 180 s its callers allow.
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def load_spec() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path}: {error}") from None


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no simulator sources under {ROOT / 'src'}; run from a "
            "checkout of the repository")


def launch(workload: str, mode: str, deadline: float, *, seed: int,
           seconds: float = 0.0, smoke: bool = False,
           extra: Optional[List[str]] = None) -> Dict[str, object]:
    """Start one worker process and return its result document.

    The worker runs in its own session so that, on timeout, it and any
    pool workers it forked are killed together.
    """
    command = [sys.executable, "-m", "benchmarks.e2e.worker",
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--seconds", str(0 if smoke else seconds)]
    if smoke:
        command += ["--smoke", "--min-passes", "2"]
    command += extra or []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command += ["--launched-at", repr(time.monotonic())]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_session(process)
        raise BenchmarkError(
            f"{workload} ({mode}) did not finish in time") from None
    finally:
        if process.poll() is None:  # interrupted: leave nothing behind
            _kill_session(process)
    results = [line for line in stdout.splitlines()
               if line.startswith(RESULT_PREFIX)]
    if process.returncode != 0 or not results:
        raise BenchmarkError(
            f"{workload} ({mode}) worker exited with {process.returncode}")
    return json.loads(results[-1][len(RESULT_PREFIX):])


def _kill_session(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass
    process.communicate()


def _expected_args(seed: int, smoke: bool) -> List[str]:
    if seed != 0 or smoke:
        return []
    return ["--expected", str(EXPECTED_FILE)]


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool,
                 deadline: float) -> Dict[str, object]:
    setups = []
    for start in range(SETUP_STARTS):
        last = start == SETUP_STARTS - 1
        document = launch(workload, "run" if last else "setup", deadline,
                          seed=seed, seconds=seconds, smoke=smoke,
                          extra=_expected_args(seed, smoke)
                          if last else None)
        setups.append(document["setup_s"])
    document["metrics"]["setup_s"] = statistics.median(setups)
    return document


def run_traced(workload: str, seed: int, seconds: float, smoke: bool,
               deadline: float) -> Dict[str, object]:
    reference = launch(workload, "run", deadline, seed=seed, seconds=seconds,
                       smoke=smoke,
                       extra=_expected_args(seed, smoke))
    trace_file = OUTPUT_DIR / f"trace-{workload}.json.gz"
    traced = launch(workload, "trace", deadline, seed=seed, smoke=smoke,
                    extra=["--untraced-wall",
                           repr(reference["metrics"]["wall_s"]),
                           "--trace-file", str(trace_file)])
    problems = list(traced["problems"])
    if traced["digests"] != reference["digests"]:
        problems.append("tracing changed the simulated outcome")
    traced["problems"] = problems
    traced["failed"] += reference["failed"]
    traced["attempted"] += reference["attempted"]
    traced["mismatched"] = reference["mismatched"]
    traced["trace_file"] = str(trace_file.relative_to(ROOT))
    return traced


def report(workload: str, seed: int, trace: bool, document, spec) -> None:
    """Print one run's metrics, then its JSON line."""
    group = spec["per_layer" if trace else "end_to_end"]
    metrics = document["metrics"]
    attempted, failed = document["attempted"], document["failed"]
    problems = list(document.get("problems", []))
    if not document["deterministic"]:
        problems.append("passes disagree on the simulated outcome")
    if document["mismatched"]:
        problems.append(f"{document['mismatched']} trial outcomes differ "
                        "from the committed seed-0 digests")
    correct = failed == 0 and not problems
    print(f"# e2e workload={workload} seed={seed} trace={int(trace)}")
    for metric in group:
        value = metrics[metric["name"]]
        print(f"{metric['name']:<38} {value:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio':<38} {failed / max(attempted, 1):>16.6g} "
          f"fraction ({failed}/{attempted} trials)")
    if "raw_wall_s" in document:
        print(f"{'wall_s as the clock read it':<38} "
              f"{document['raw_wall_s']:>16.6g} s (setup_s "
              f"{document['setup_raw_s']:.4g} s, last start)")
    print(f"digest {combined_digest(document['digests'])} "
          f"({len(document['digests'])} outcomes, "
          f"{document['passes']} passes)")
    for line in document.get("twin", []):
        print(f"twin   {line}")
    if "trace_file" in document:
        print(f"trace  {document['trace_file']} ({document['spans']} spans)")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": metrics[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in group},
    }))
    sys.stdout.flush()


def record_digests(spec) -> int:
    names = [workload["name"] for workload in spec["workloads"]]
    expected = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        document = launch(name, "run", deadline, seed=0,
                          extra=["--min-passes", "1"])
        expected[name] = document["digests"]
        print(f"{name}: {len(document['digests'])} digests, "
              f"{combined_digest(document['digests'])}")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            from benchmarks.e2e.compare import main as compare_main
            return compare_main(argv[1:], spec)
        _check_checkout()
        if argv[:1] == ["record-digests"]:
            return record_digests(spec)
        names = [workload["name"] for workload in spec["workloads"]]
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
        parser.add_argument("--workload", choices=names + ["all"],
                            default="all")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float,
                            default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--smoke", action="store_true",
                            help="tiny inputs, two passes: checks the "
                                 "harness, measures nothing")
        args = parser.parse_args(argv)
        selected = names if args.workload == "all" else [args.workload]
        for name in selected:
            deadline = time.monotonic() + RUN_DEADLINE_S
            run = run_traced if args.trace else run_untraced
            document = run(name, args.seed, args.seconds, args.smoke,
                           deadline)
            report(name, args.seed, bool(args.trace), document, spec)
        return 0
    except BenchmarkError as error:
        print(f"benchmarks.e2e: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
