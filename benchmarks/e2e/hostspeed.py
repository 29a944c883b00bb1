"""Host-speed probe: normalize host times for a shared, contended host.

On a small shared VM the simulator's host time swings by up to 1.8x for
tens of seconds at a time as other tenants load the physical cores,
which no median over a ten-second run can hide.  The swing slows a fixed
pure-Python loop by about the same factor, so the benchmark times each
chunk of work (a trial population, an SMP trial, set-up) between two
runs of this loop and rescales the chunk to the speed the loop has on an
uncontended host::

    normalized = raw * REFERENCE_PROBE_NS / mean(probe before, probe after)

Simulator changes do not touch the loop, so a slower simulator still
reads slower; only the host's contention cancels.  A serial workload
pins its process to one CPU and probes that CPU; a pool workload probes
every CPU at once and takes the mean, since its trials run on all of
them.
"""

from __future__ import annotations

import os
import struct
import time

PROBE_ITERATIONS = 100_000
#: ns per probe iteration on an uncontended host of the kind the
#: baseline was measured on (the fastest of hundreds of probes).
REFERENCE_PROBE_NS = 37.5


def probe_ns() -> float:
    """Mean ns per iteration of a fixed pure-Python loop (about 4 ms).

    A mean, not a best-of: contention comes and goes within
    milliseconds, and the chunk it rescales sees the average.
    """
    start = time.perf_counter_ns()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value & 0xFF
    return (time.perf_counter_ns() - start) / PROBE_ITERATIONS


def settled_probe_ns() -> float:
    """Median of three probes: one long interval (set-up) is rescaled
    by a single factor, which one contended probe must not skew."""
    return sorted(probe_ns() for _ in range(3))[1]


def probe_all_cpus_ns() -> float:
    """Mean of :func:`probe_ns` run at once on every CPU this process
    may use, each in a forked child pinned to its CPU."""
    children = []
    for cpu in sorted(os.sched_getaffinity(0)):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: probe, report, leave without any cleanup
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                os.write(write_end, struct.pack("d", probe_ns()))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    results = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as pipe:
            payload = pipe.read()
        os.waitpid(pid, 0)
        if len(payload) != 8:
            raise RuntimeError(f"host-speed probe in pid {pid} failed")
        results.append(struct.unpack("d", payload)[0])
    return sum(results) / len(results)


def pin_to_one_cpu() -> None:
    """Keep this process on its lowest allowed CPU, so the probe and
    the work it rescales share a CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scale(before_ns: float, after_ns: float) -> float:
    """Factor that converts raw host time between two probes to
    reference-host time."""
    return REFERENCE_PROBE_NS / ((before_ns + after_ns) / 2)
