#!/usr/bin/env python
"""Counter-guided co-location on a shared-LLC multi-core cluster.

The full loop the paper motivates (§I, §II-C, §IV-B, citing Torres et
al.): *measure* each workload's memory intensity with K-LEB, *plan*
complementary pairings, then *validate* the plan by actually co-running
workloads on cores that share a last-level cache — showing that a
memory+memory pairing hurts while the planned memory+compute pairing is
nearly free.
"""

from repro.apps.colocation import plan_colocation, validate_plan
from repro.kernel.smp import corun_parallel
from repro.experiments.report import text_table
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.synthetic import (
    PointerChaseWorkload,
    StridedMemoryWorkload,
    UniformComputeWorkload,
)

EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")


def make_workloads():
    """Four tenants with distinct address spaces (distinct processes)."""
    return {
        "web-cache": PointerChaseWorkload(
            6 * 1024 * 1024, 600_000, seed=3,
            name="web-cache", address_base=0x1000_0000),
        "log-shipper": StridedMemoryWorkload(
            64 * 1024 * 1024, 300_000,
            name="log-shipper", address_base=0x8000_0000),
        "api-server": UniformComputeWorkload(4e7, name="api-server"),
        "batch-math": UniformComputeWorkload(
            5e7, rates={"LOADS": 0.2, "STORES": 0.08, "ARITH_MUL": 0.4,
                        "FP_OPS": 0.8, "BRANCHES": 0.05},
            name="batch-math"),
    }


def measure_mpki(name, program):
    result = run_monitored(program, create_tool("k-leb"), events=EVENTS,
                           period_ns=ms(1), seed=0)
    totals = result.report.totals
    return totals["LLC_MISSES"] / (totals["INST_RETIRED"] / 1000.0)


def main() -> None:
    workloads = make_workloads()

    print("Step 1 — measure memory intensity with K-LEB (1 ms rate)\n")
    mpki = {name: measure_mpki(name, program)
            for name, program in make_workloads().items()}
    rows = [[name, f"{value:8.2f}"] for name, value in
            sorted(mpki.items(), key=lambda kv: kv[1])]
    print(text_table(["workload", "LLC MPKI"], rows))

    print("\nStep 2 — plan complementary pairings (high MPKI with low)\n")
    plan = plan_colocation(mpki)
    print(plan.describe())
    assert validate_plan(plan) == []

    print("\nStep 3 — validate on a shared-LLC two-core cluster\n")
    fresh = make_workloads()
    planned = corun_parallel([fresh["web-cache"], fresh["api-server"]],
                             seed=1)
    fresh = make_workloads()
    naive = corun_parallel([fresh["web-cache"], fresh["log-shipper"]],
                           seed=1)
    rows = [
        ["web-cache + api-server (planned)",
         f"{planned[0].slowdown:.3f}x"],
        ["web-cache + log-shipper (naive)",
         f"{naive[0].slowdown:.3f}x"],
    ]
    print(text_table(["pairing", "web-cache slowdown"], rows))
    print("\nThe cache-resident service pays for a memory-intensive "
          "neighbour; the counter-guided pairing avoids that — the "
          "scheduling win the paper's online monitoring enables.")


if __name__ == "__main__":
    main()
