"""Kernel cost model and tunables.

Every privileged operation in the simulation has an explicit time cost,
charged on the machine clock and counted by the PMU at kernel
privilege.  The values are ballpark figures for the paper's era of
hardware (Nehalem, Linux 4.x): a syscall round trip of order 1 µs, a
context switch of order 2 µs, interrupt entry well under 1 µs.

The *user-space timer floor* defaults to 10 ms — the jiffy resolution
the paper identifies as the reason perf cannot sample faster than
10 ms (§II-C), while the kernel HRTimer resolves to nanoseconds with a
small jitter (§III recommends not sampling faster than 100 µs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.clock import ms, us


@dataclass(frozen=True)
class SyscallCosts:
    """Time cost of the syscall path, in nanoseconds."""

    entry_ns: int = 300
    exit_ns: int = 200
    per_call_ns: Dict[str, int] = field(default_factory=lambda: {
        "ioctl": 800,
        "read": 1_000,
        "write": 1_500,
        "nanosleep": 500,
        "fork": 15_000,
        "open": 2_000,
        "close": 700,
        "getpid": 100,
    })


@dataclass(frozen=True)
class KernelConfig:
    """Scheduler, timer, and noise parameters."""

    # Kernel release this system "runs" — gates tool/workload pairs
    # the way real deployments do (LiMiT's patch only exists for
    # 2.6.32; Intel MKL needs a modern kernel — paper Table III).
    kernel_version: str = "4.13"

    # Scheduling
    quantum_ns: int = ms(4)                 # Linux CFS-era timeslice scale
    context_switch_ns: int = us(2)

    # Interrupts
    irq_entry_ns: int = 600
    irq_exit_ns: int = 400

    # Timers
    hrtimer_jitter_mean_ns: int = 400       # §VI: HRTimer has real jitter
    hrtimer_jitter_sd_ns: int = 250
    hrtimer_min_period_ns: int = us(10)     # below this the model refuses
    user_timer_resolution_ns: int = ms(10)  # jiffy: perf's 10 ms floor
    wakeup_latency_mean_ns: int = us(30)    # scheduler wakeup delay
    wakeup_latency_sd_ns: int = us(15)

    # Background OS noise (daemons, unrelated interrupts) — gives the
    # no-profiling baseline its run-to-run spread (Fig. 8).
    noise_enabled: bool = True
    noise_rate_per_sec: float = 40.0
    noise_cost_mean_ns: int = us(9)
    noise_cost_sd_ns: int = us(4)

    syscalls: SyscallCosts = field(default_factory=SyscallCosts)

    # Event mix of generic kernel work (syscall service, IRQ handlers),
    # per instruction, used when charging kernel time to the PMU.
    kernel_work_cpi: float = 1.2
    kernel_work_rates: Dict[str, float] = field(default_factory=lambda: {
        "LOADS": 0.30,
        "STORES": 0.16,
        "BRANCHES": 0.14,
        "BRANCH_MISSES": 0.004,
        "LLC_REFERENCES": 0.002,
        "LLC_MISSES": 0.0005,
    })
