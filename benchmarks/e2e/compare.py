"""``python -m benchmarks.e2e compare``: judge a change against its parent.

Input: saved stdout of benchmark runs, one file per side of a pair, in
the order parent, change, parent, change, ... (alternate which side runs
first when producing them).  A file may hold runs of several workloads;
each run is the ``# e2e workload=...`` header and the JSON line after it.

For every workload and metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict, by these rules:

* ``improved``: the change won at least 9/10 of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``, or more trials failed;
* ``unresolved``: fewer than 10 pairs, or the parent's own quartile
  spread is wider than the bound and not every change run beat every
  parent run;
* ``unchanged``: otherwise.

Per-layer metrics have no bound; they get ``improved`` or ``-``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from typing import Dict, List, Optional, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9
HEADER = re.compile(r"^# e2e workload=(\S+) seed=(-?\d+) trace=([01])$")

Run = Dict[str, object]


def parse_runs(text: str) -> List[Tuple[str, Run]]:
    """``(workload, result)`` for every run in a saved stdout."""
    runs: List[Tuple[str, Run]] = []
    workload: Optional[str] = None
    for line in text.splitlines():
        match = HEADER.match(line)
        if match:
            workload = match.group(1)
        elif workload is not None and line.startswith("{"):
            runs.append((workload, json.loads(line)))
            workload = None
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """The verdict for one metric and the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gain = sign * (c_median - p_median)
    if len(parent) < MIN_PAIRS:
        return "unresolved", share
    if share >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", share
    if bound is None:
        return "-", share
    if p_median and -gain / abs(p_median) > bound:
        return "regressed", share
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_median and (p_q3 - p_q1) / abs(p_median) > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(texts: List[str], spec) -> List[str]:
    if len(texts) % 2:
        raise ValueError("files must come in parent/change pairs")
    metrics = {metric["name"]: metric
               for metric in spec["end_to_end"] + spec["per_layer"]}
    # workload -> list of (parent run, change run)
    pairs: Dict[str, List[Tuple[Run, Run]]] = {}
    for parent_text, change_text in zip(texts[::2], texts[1::2]):
        parents, changes = parse_runs(parent_text), parse_runs(change_text)
        for workload in dict.fromkeys(name for name, _ in parents):
            ours = [run for name, run in parents if name == workload]
            theirs = [run for name, run in changes if name == workload]
            pairs.setdefault(workload, []).extend(zip(ours, theirs))
    lines: List[str] = []
    for workload, runs in pairs.items():
        lines.append(f"{workload} ({len(runs)} pairs)")
        lines.append(f"  {'metric':<36} {'parent median [q1, q3]':>34} "
                     f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
        failed = [(p["failed"], c["failed"]) for p, c in runs]
        names = [name for name in runs[0][0]["metrics"]
                 if name in metrics and name in runs[0][1]["metrics"]]
        for name in names:
            parent = [p["metrics"][name]["value"] for p, _ in runs]
            change = [c["metrics"][name]["value"] for _, c in runs]
            metric = metrics[name]
            result, share = verdict(parent, change, metric["better"],
                                    metric.get("bound"))
            lines.append(
                f"  {name:<36} {_describe(parent):>34} "
                f"{_describe(change):>34} {share:>5.0%}  {result}")
        parent_failed = sum(p for p, _ in failed)
        change_failed = sum(c for _, c in failed)
        lines.append(f"  {'failed trials':<36} {parent_failed:>34} "
                     f"{change_failed:>34} {'':>5}  "
                     + ("regressed" if change_failed > parent_failed
                        else "unchanged"))
    return lines


def _describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(paths: List[str], spec) -> int:
    if len(paths) < 2:
        print("usage: python -m benchmarks.e2e compare PARENT CHANGE "
              "[PARENT CHANGE ...]", file=sys.stderr)
        return 2
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    try:
        lines = compare(texts, spec)
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0
