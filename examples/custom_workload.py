#!/usr/bin/env python
"""Build a custom workload and analyse its phase behaviour.

Shows the workload IR end-to-end: define a program from rate blocks
(compute phases) and trace blocks (real memory accesses through the
simulated cache hierarchy), monitor it with K-LEB, and recover the
phase structure from the samples — the paper's Fig. 4 methodology
applied to your own program.
"""

from typing import Iterator

import numpy as np

from repro.analysis.phases import detect_phases, merge_short_segments
from repro.analysis.timeseries import deltas, samples_to_series
from repro.experiments.report import sparkline, text_table
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.base import (Block, OpKind, Program, RateBlock, Trace,
                                  TraceBlock)

EVENTS = ("LOADS", "STORES", "ARITH_MUL", "LLC_MISSES")


class ImageFilterPipeline(Program):
    """A made-up three-stage image pipeline: decode -> convolve -> encode.

    * decode: branchy parsing, light memory traffic;
    * convolve: multiply-heavy compute over a resident tile;
    * encode: streaming writes through a large output buffer, replayed
      through the cache model so LLC misses are real.
    """

    name = "image-filter-pipeline"

    def __init__(self, frames: int = 6) -> None:
        self.frames = frames

    def blocks(self) -> Iterator[Block]:
        output_base = 0x5000_0000
        line = 64
        cursor = 0
        for frame in range(self.frames):
            yield RateBlock(
                instructions=1.0e7,
                rates={"LOADS": 0.35, "STORES": 0.10, "BRANCHES": 0.25,
                       "BRANCH_MISSES": 0.01},
                label=f"decode-{frame}",
            )
            yield RateBlock(
                instructions=2.5e7,
                rates={"LOADS": 0.40, "STORES": 0.15, "ARITH_MUL": 0.50,
                       "FP_OPS": 1.0, "BRANCHES": 0.05},
                label=f"convolve-{frame}",
            )
            # Encode: stream the frame out — fresh lines, genuine misses.
            # A Trace is two columns (addresses, op kinds) built in one
            # array expression; Trace.from_ops also takes MemOp lists.
            addresses = output_base + (cursor + np.arange(40_000)) * line
            cursor += 40_000
            yield TraceBlock(ops=Trace(addresses, OpKind.STORE),
                             instructions_per_op=6, event_scale=4,
                             label=f"encode-{frame}")


def main() -> None:
    program = ImageFilterPipeline()
    result = run_monitored(program, create_tool("k-leb"), events=EVENTS,
                           period_ns=ms(1), seed=5)
    report = result.report
    print(f"{program.name}: {result.wall_ns / 1e6:.1f} ms, "
          f"{report.sample_count} samples @ 1 ms\n")

    series = deltas(samples_to_series(report.samples))
    for name in EVENTS:
        print(f"  {name:10s} {sparkline(series.event(name))}")

    segments = merge_short_segments(
        detect_phases(series, ("LOADS", "STORES", "ARITH_MUL"),
                      smooth_window=3),
        min_length=2,
    )
    rows = [
        [segment.label,
         f"{(segment.end_ns - segment.start_ns) / 1e6:.1f} ms"]
        for segment in segments
    ]
    print("\n" + text_table(["detected phase", "duration"], rows))

    misses = report.totals["LLC_MISSES"]
    instructions = report.totals["INST_RETIRED"]
    print(f"\nLLC MPKI: {misses / (instructions / 1000):.2f} "
          "(virtually all misses come from the streaming encode phases)")


if __name__ == "__main__":
    main()
