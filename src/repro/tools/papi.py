"""PAPI analogue: source-level instrumentation with syscall reads.

PAPI's properties as the paper characterizes them (§II-B, §V):

* **requires the source code** — monitoring calls are compiled into the
  program (here: the block stream is rewritten with read points);
* **expensive system calls** per counter read — the dominant per-point
  cost, and the reason PAPI tops Table II;
* a **one-time library initialization** (``PAPI_library_init`` + event
  set construction) before ``PAPI_start`` — a fixed cost that dominates
  short programs, producing Table III's 21.4 % on MKL dgemm;
* counting starts at ``PAPI_start`` and ends at ``PAPI_stop``, so the
  library init itself is *not* counted, but the small user-space
  bookkeeping at each read point *is* — PAPI's slight positive count
  deviation in Fig. 9.
"""

from __future__ import annotations

from typing import List

from repro.tools import costs
from repro.tools.readpoint import (
    DEFAULT_FREQUENCY_HZ,
    ReadPointRuntime,
    ReadPointTool,
)
from repro.workloads.base import Block, RateBlock, SyscallBlock


class PapiTool(ReadPointTool):
    """PAPI-C: instrumented collection through syscall reads."""

    name = "papi"
    label = "PAPI"
    read_syscall_ns_per_event = costs.PAPI_READ_SYSCALL_NS_PER_EVENT
    log_kernel_ns = costs.PAPI_LOG_KERNEL_NS

    def prologue(self, runtime: ReadPointRuntime) -> List[Block]:
        return [
            # PAPI_library_init + component discovery + event set build.
            RateBlock(
                instructions=(costs.PAPI_INIT_NS / 1e9) * DEFAULT_FREQUENCY_HZ,
                rates={"LOADS": 0.33, "STORES": 0.22, "BRANCHES": 0.15},
                label="papi-library-init",
            ),
            SyscallBlock("papi_start", handler=runtime.start,
                         label="PAPI_start"),
        ]

    def read_point(self, runtime: ReadPointRuntime) -> List[Block]:
        return [
            SyscallBlock("read", handler=runtime.read, label="PAPI_read"),
            # User-side bookkeeping around the read — counted by the
            # user-mode counters because it runs between start and stop.
            RateBlock(
                instructions=costs.PAPI_USER_INSTRUCTIONS_PER_POINT,
                rates={"LOADS": 0.4, "STORES": 0.3, "BRANCHES": 0.1},
                label="papi-bookkeeping",
            ),
            SyscallBlock("write", handler=runtime.log, label="papi-log"),
        ]

    def epilogue(self, runtime: ReadPointRuntime) -> List[Block]:
        return [SyscallBlock("papi_stop", handler=runtime.stop,
                             label="PAPI_stop")]
