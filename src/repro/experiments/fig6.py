"""Fig. 6 — Meltdown vs clean program: mean LLC references/misses.

The paper averages hardware counts over 100 rounds of each program:
the attacked run shows dramatically higher LLC references and misses
(Flush+Reload traffic) and longer execution (more samples).  MPKI
jumps from 7.52 to 27.53 on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.metrics import report_mpki
from repro.analysis.stats import mean_or_nan
from repro.experiments import report
from repro.experiments.runner import run_trials
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import us
from repro.tools.registry import create_tool
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter

EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")


@dataclass
class Fig6Result:
    """Round-averaged counts for the clean and attacked programs."""

    clean_means: Dict[str, float]
    attack_means: Dict[str, float]
    clean_mpki: float
    attack_mpki: float
    clean_samples_mean: float
    attack_samples_mean: float
    rounds: int
    period_ns: int


def run(rounds: int = 20, period_ns: int = us(100), seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> Fig6Result:
    """Reproduce Fig. 6.  The paper used 100 rounds; default is 20 for
    turnaround — pass ``rounds=100`` for the full population."""
    populations = {}
    for key, program in (("clean", SecretPrinter()),
                         ("attack", MeltdownAttack())):
        results = run_trials(
            program, create_tool("k-leb"), runs=rounds, events=EVENTS,
            period_ns=period_ns, base_seed=seed,
            machine_config=machine_config, jobs=jobs,
            faults=faults, fault_ledger=fault_ledger,
        )
        totals = [result.report.totals for result in results]
        means = {
            event: mean_or_nan([t[event] for t in totals])
            for event in list(EVENTS) + ["INST_RETIRED"]
        }
        populations[key] = {
            "means": means,
            "mpki": mean_or_nan([report_mpki(t) for t in totals]),
            "samples": mean_or_nan([
                result.report.sample_count for result in results
            ]),
        }
    return Fig6Result(
        clean_means=populations["clean"]["means"],
        attack_means=populations["attack"]["means"],
        clean_mpki=populations["clean"]["mpki"],
        attack_mpki=populations["attack"]["mpki"],
        clean_samples_mean=populations["clean"]["samples"],
        attack_samples_mean=populations["attack"]["samples"],
        rounds=rounds,
        period_ns=period_ns,
    )


def render(result: Fig6Result) -> str:
    rows = []
    for event in ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES"):
        clean = result.clean_means[event]
        attack = result.attack_means[event]
        factor = attack / clean if clean else float("inf")
        rows.append([
            event,
            report.format_count(clean),
            report.format_count(attack),
            f"{factor:.1f}x",
        ])
    rows.append([
        "MPKI", f"{result.clean_mpki:.2f}", f"{result.attack_mpki:.2f}",
        f"{result.attack_mpki / result.clean_mpki:.1f}x",
    ])
    rows.append([
        "samples @100us",
        f"{result.clean_samples_mean:.0f}",
        f"{result.attack_samples_mean:.0f}",
        "-",
    ])
    table = report.text_table(
        ["metric", "no Meltdown", "with Meltdown", "ratio"], rows,
        title=f"Fig. 6 — Meltdown comparison ({result.rounds} rounds)",
    )
    return (f"{table}\n\npaper: MPKI 7.52 -> 27.53; "
            "LLC references/misses significantly higher under attack")
