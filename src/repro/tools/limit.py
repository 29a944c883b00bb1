"""LiMiT analogue: user-space counter reads on a patched kernel.

LiMiT (Demme & Sethumadhavan, ISCA'11) removes PAPI's syscall cost by
patching the kernel so user code can read (``rdpmc``) and manage the
counters directly.  The paper's characterization (§II-B, §V):

* needs a **kernel patch** — cannot be used on a stock or already
  running system (K-LEB's module-based deployment advantage);
* the patch exists for an old kernel only (their LiMiT box ran Ubuntu
  12.04 / 2.6.32), which is why Table III has no LiMiT entry for
  Intel MKL;
* per read point the counter access itself is nearly free, but the
  sample still has to be logged — so LiMiT lands *between* K-LEB and
  PAPI in Table II (4.08 %).
"""

from __future__ import annotations

from typing import List

from repro.tools import costs
from repro.tools.readpoint import (
    DEFAULT_FREQUENCY_HZ,
    ReadPointRuntime,
    ReadPointTool,
)
from repro.workloads.base import Block, RateBlock, SyscallBlock, user_probe

LIMIT_PATCH = "limit"


class LimitTool(ReadPointTool):
    """LiMiT: precise event counting via a kernel patch."""

    name = "limit"
    label = "LiMiT"
    required_patches = (LIMIT_PATCH,)
    # The patch only exists for this kernel line (paper §IV preamble:
    # "The LiMiT patch is running on Ubuntu 12.04 with 2.6.32").
    kernel_version = "2.6.32"
    # Reads are a pure user-space rdpmc loop: no syscall, no kernel time.
    read_syscall_ns_per_event = 0.0
    log_kernel_ns = costs.LIMIT_LOG_KERNEL_NS

    def prologue(self, runtime: ReadPointRuntime) -> List[Block]:
        return [
            RateBlock(
                instructions=(costs.LIMIT_SETUP_NS / 1e9)
                * DEFAULT_FREQUENCY_HZ,
                rates={"LOADS": 0.3, "STORES": 0.2, "BRANCHES": 0.12},
                label="limit-setup",
            ),
            # With the patch, enabling counters from user land is a
            # lightweight operation (no context switch into a driver).
            user_probe(runtime.start, label="limit-enable"),
        ]

    def read_point(self, runtime: ReadPointRuntime) -> List[Block]:
        return [
            # The rdpmc + overflow-check sequence per event.
            RateBlock(
                instructions=costs.LIMIT_USER_INSTRUCTIONS_PER_READ
                * len(runtime.events),
                rates={"LOADS": 0.35, "STORES": 0.25, "BRANCHES": 0.1},
                label="limit-rdpmc",
            ),
            user_probe(runtime.read, label="limit-read"),
            SyscallBlock("write", handler=runtime.log, label="limit-log"),
        ]

    def epilogue(self, runtime: ReadPointRuntime) -> List[Block]:
        return [user_probe(runtime.stop, label="limit-stop")]
