"""The benchmark definitions: three hot-path micros plus end-to-end.

Every benchmark reports raw seconds, an operation count, a normalized
``ns_per_op``, and ``calibrated`` — ``ns_per_op`` divided by the ns/op
of a fixed pure-Python calibration loop measured in the same process.
The calibrated ratio cancels host speed to first order, which is what
the CI regression gate compares (absolute nanoseconds differ between a
laptop and a CI runner; the ratio of simulator work to plain Python
work does not, to first order).
"""

from __future__ import annotations

import gc
import time
import weakref
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.experiments import table2
from repro.experiments.runner import run_monitored
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.hw.pmu import Pmu
from repro.kernel.config import KernelConfig
from repro.kernel.hrtimer import HrTimer
from repro.kernel.kernel import Kernel
from repro.sim.clock import ms, us
from repro.sim.engine import EventQueue
from repro.sim.rng import RngStreams
from repro.tools.registry import create_tool
from repro.workloads.base import (KIND_CODES, ListProgram, OpKind, Program,
                                  Trace, TraceBlock)
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter

FIG7_EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")
QUICK_SECRET = "Sq!mish"


def _timed(fn: Callable[[], int]) -> Dict[str, float]:
    """Run ``fn`` (returns its op count) with GC paused; report timing."""
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ops = fn()
        seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "seconds": seconds,
        "ops": float(ops),
        "ns_per_op": seconds * 1e9 / max(ops, 1),
    }


def bench_calibration(iters: int = 2_000_000) -> Dict[str, float]:
    """Fixed pure-Python spin loop: the host-speed yardstick."""

    def loop() -> int:
        total = 0
        for value in range(iters):
            total += value & 0xFF
        return iters

    result = _timed(loop)
    result["checksum"] = 0.0
    return result


def bench_pmu_accumulate(iters: int) -> Dict[str, float]:
    """``Pmu.accumulate`` with a realistic counter programming.

    Three fixed counters plus four programmable events, alternating
    user/kernel slices, delivered through the dict entry point (the
    simulator itself charges epochs; see ``pmu_epoch_accumulate``).
    """
    pmu = Pmu()
    pmu.enable_fixed(user=True, kernel=False)
    for index, name in enumerate(("LOADS", "STORES", "BRANCHES",
                                  "LLC_MISSES")):
        pmu.program_counter(index, name, user=True, kernel=False)
    pmu.global_enable()
    user_counts = {
        "INST_RETIRED": 5000.0, "CORE_CYCLES": 6000.0,
        "REF_CYCLES": 6000.0, "LOADS": 1700.0, "STORES": 900.0,
        "BRANCHES": 1100.0, "LLC_MISSES": 12.5, "FP_OPS": 300.0,
    }
    kernel_counts = {
        "INST_RETIRED": 800.0, "CORE_CYCLES": 1000.0,
        "REF_CYCLES": 1000.0, "LOADS": 260.0, "STORES": 140.0,
        "BRANCHES": 90.0,
    }

    def loop() -> int:
        accumulate = pmu.accumulate
        for index in range(iters):
            if index & 3:
                accumulate(user_counts, "user")
            else:
                accumulate(kernel_counts, "kernel")
        return iters

    result = _timed(loop)
    result["checksum"] = float(pmu.rdpmc(0))
    return result


def bench_pmu_epoch_accumulate(iters: int) -> Dict[str, float]:
    """``Pmu.accumulate_epoch`` — how every simulator charge is delivered.

    Same programming as ``bench_pmu_accumulate``, but each slice lands
    as one name-tuple/value-row call (the shape the rate, trace and
    kernel charges produce), so the compiled apply-list fast path is
    what's measured.
    """
    pmu = Pmu()
    pmu.enable_fixed(user=True, kernel=False)
    for index, name in enumerate(("LOADS", "STORES", "BRANCHES",
                                  "LLC_MISSES")):
        pmu.program_counter(index, name, user=True, kernel=False)
    pmu.global_enable()
    names = ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES", "LOADS",
             "STORES", "BRANCHES", "LLC_MISSES", "FP_OPS")
    user_values = (5000.0, 6000.0, 6000.0, 1700.0, 900.0, 1100.0,
                   12.5, 300.0)
    kernel_values = (800.0, 1000.0, 1000.0, 260.0, 140.0, 90.0, 0.0, 0.0)

    def loop() -> int:
        accumulate_epoch = pmu.accumulate_epoch
        for index in range(iters):
            if index & 3:
                accumulate_epoch(names, user_values, "user")
            else:
                accumulate_epoch(names, kernel_values, "kernel")
        return iters

    result = _timed(loop)
    result["checksum"] = float(pmu.rdpmc(0))
    return result


def bench_event_queue(fires: int, streams: int = 16) -> Dict[str, float]:
    """Periodic schedule/dispatch/re-arm with cancellation tombstones.

    ``streams`` interleaved periodic timers re-arm themselves on every
    fire (the HRTimer pattern); every fourth fire also schedules a
    decoy event and immediately cancels it, so the lazy-cancellation
    path is always in play.
    """
    queue = EventQueue()
    state = {"fired": 0}
    period = 100_000

    def make_callback(stream: int) -> Callable[[int], None]:
        def fire(when: int) -> None:
            state["fired"] += 1
            event = queue.schedule(when + period, fire, label=f"s{stream}")
            if state["fired"] & 3 == 0:
                decoy = queue.schedule(when + 3 * period, fire, label="decoy")
                decoy.cancel()
            _ = event
        return fire

    for stream in range(streams):
        queue.schedule(1000 + stream, make_callback(stream), label=f"s{stream}")

    def loop() -> int:
        now = 0
        while state["fired"] < fires:
            next_time = queue.peek_time()
            if next_time is None:  # pragma: no cover - queue never drains
                break
            now = next_time
            queue.dispatch_due(now)
        return state["fired"]

    result = _timed(loop)
    result["checksum"] = float(len(queue))
    return result


def bench_hrtimer_rearm(fires: int) -> Dict[str, float]:
    """Kernel-level periodic HRTimer at 100 us driven by the run loop.

    Exercises the full fire path: idle advance to the expiry, interrupt
    entry/exit charging, jitter draw, ideal-grid re-arm.
    """
    machine = Machine(i7_920())
    kernel = Kernel(machine, config=KernelConfig(), rng=RngStreams(1234))
    count = {"fires": 0}

    def tick(when: int) -> None:
        count["fires"] += 1

    timer = HrTimer(kernel, tick, label="bench")
    timer.start(us(100))

    def loop() -> int:
        kernel.run(deadline=fires * us(100) + us(50))
        return count["fires"]

    result = _timed(loop)
    timer.cancel()
    result["checksum"] = float(count["fires"])
    return result


def _trace_program(rounds: int) -> Program:
    """A trace mixing the patterns the case studies produce.

    Per round: a streaming sweep (fresh lines, misses), a dense re-walk
    of the same buffer (hits, with same-line runs), and a Flush+Reload
    probe pass (page-spaced flushes then reloads) — the Fig. 6/7 mix.
    """
    line, page = 64, 4096
    index = np.arange(1024)
    # 4 accesses per line: same-line runs within the sweep.
    rewalk = (index // 4) * line * 2 + (index % 4) * 8
    probes = 0x4000_0000 + np.arange(128) * page
    round_kinds = np.repeat([KIND_CODES[OpKind.LOAD], KIND_CODES[OpKind.FLUSH],
                             KIND_CODES[OpKind.LOAD]], [512 + 1024, 128, 128])
    addresses = []
    for round_index in range(rounds):
        stream_base = 0x1000_0000 + round_index * 512 * line
        addresses += [stream_base + np.arange(512) * line,
                      stream_base + rewalk, probes, probes]
    block = TraceBlock(
        ops=Trace(np.concatenate(addresses), np.tile(round_kinds, rounds)),
        instructions_per_op=3.0, event_scale=4.0, label="bench-trace")
    return ListProgram("bench-trace", [block])


def bench_trace_replay(rounds: int) -> Dict[str, float]:
    """Core.execute over a mixed trace (stream + re-walk + flush/reload)."""
    from repro.workloads.base import BlockCursor

    machine = Machine(i7_920())
    program = _trace_program(rounds)
    total_ops = rounds * (512 + 1024 + 128 + 128)

    def loop() -> int:
        cursor = BlockCursor(program)
        budget = us(100)
        while not cursor.finished:
            machine.core.execute(cursor, budget)
        return total_ops

    result = _timed(loop)
    result["checksum"] = float(machine.cache.stats.accesses)
    return result


def _attack_trace_program(rounds: int) -> Program:
    """A Flush+Reload trace tiled from one round.

    The shape the Meltdown attack produces — a long flush run, one
    transient access, then a reload pass whose misses are statically
    guaranteed by the preceding flushes — which is exactly what the
    batch planner collapses into flush/guaranteed-miss segments.
    """
    page = 4096
    probe_base = 0x4000_0000
    probes = probe_base + np.arange(256) * page
    round_trace = (Trace(probes, OpKind.FLUSH)
                   + Trace([probe_base + 77 * page]) + Trace(probes))
    block = TraceBlock(ops=round_trace * rounds, instructions_per_op=4.0,
                       event_scale=4.0, label="bench-trace-batch")
    return ListProgram("bench-trace-batch", [block])


def bench_trace_replay_batch(rounds: int) -> Dict[str, float]:
    """Core.execute over the attack-shaped trace (batch replay path).

    The trace is reused across iterations, so the planner compiles once
    and every replay runs the segment-collapsed fast path, counting
    each round whose predecessor ran in the same chain of slices
    instead of replaying it — the regime the end-to-end Fig. 7 run
    lives in.  ``period`` is the round length the plan found: 513 ops
    (256 flushes, the transient load and 256 reloads), or 0 if the
    tile lost its period.
    """
    from repro.workloads.base import BlockCursor

    machine = Machine(i7_920())
    program = _attack_trace_program(rounds)
    total_ops = rounds * (256 + 1 + 256)

    def loop() -> int:
        cursor = BlockCursor(program)
        budget = us(100)
        while not cursor.finished:
            machine.core.execute(cursor, budget)
        return total_ops

    loop()  # compile the trace plan off the clock (once per process)
    result = _timed(loop)
    result["checksum"] = float(machine.cache.stats.accesses)
    (block,) = program.blocks()
    (plan,) = block.ops.plans.values()
    result["period"] = float(plan.period)
    return result


def bench_trace_replay_fresh(lists: int,
                             accesses: int = 20_000) -> Dict[str, float]:
    """Core.execute over fresh strided-load traces, each replayed once.

    The smp_migrate streamer shape: every trace is built, planned,
    replayed and dropped, so this is the regime where plan compilation
    is paid per replay.  ``retained_plans`` counts the plans this
    benchmark compiled that are still reachable once it has dropped its
    traces — a plan lives on its trace, so none is.
    """
    from repro.workloads.base import BlockCursor
    from repro.workloads.synthetic import StridedMemoryWorkload

    machine = Machine(i7_920())
    plans: List[weakref.ref] = []

    def loop() -> int:
        for index in range(lists):
            streamer = StridedMemoryWorkload(
                64 << 20, accesses, name=f"streamer{index}",
                address_base=(index % 3 + 1) << 30)
            (block,) = streamer.blocks()
            cursor = BlockCursor(ListProgram(streamer.name, [block]))
            budget = us(100)
            while not cursor.finished:
                machine.core.execute(cursor, budget)
            plans.extend(map(weakref.ref, block.ops.plans.values()))
        return lists * accesses

    result = _timed(loop)
    result["checksum"] = float(machine.cache.stats.accesses)
    result["retained_plans"] = float(sum(
        1 for plan in plans if plan() is not None))
    return result


def bench_trace_plan_compile(compiles: int,
                             accesses: int = 20_000) -> Dict[str, float]:
    """``_trace_plan`` on fresh traces with no plan yet.

    Two shapes, ``compiles`` of each: a 20k-op strided streamer (the
    smp_migrate list compiled once per replay) and the Meltdown attack
    tile (50 Flush+Reload rounds).  Traces are built off the clock, and
    each is dropped after its compile, taking its plan with it.
    ``streamer_ns_per_op`` and ``attack_ns_per_op`` split the
    combined ``ns_per_op``.
    """
    from repro.hw.core import _trace_plan
    from repro.workloads.meltdown import _flush_reload_tile
    from repro.workloads.synthetic import StridedMemoryWorkload

    descriptors = Machine(i7_920()).cache._descriptors
    tile = _flush_reload_tile(0x4000_0000, 4096, ord("S"), 50)

    def compile_all(lists: List[Trace]) -> int:
        ops = 0
        while lists:
            trace = lists.pop()
            ops += len(trace)
            _trace_plan(trace, descriptors)
        return ops

    streamers = [
        next(StridedMemoryWorkload(64 << 20, accesses,
                                   address_base=(index % 3 + 1) << 30)
             .blocks()).ops
        for index in range(compiles)]
    # Copies of the memoized tile: same ops, no plan yet.
    attacks = [Trace(tile.addresses, tile.kinds) for _ in range(compiles)]
    streamer = _timed(lambda: compile_all(streamers))
    attack = _timed(lambda: compile_all(attacks))
    result = {
        "seconds": streamer["seconds"] + attack["seconds"],
        "ops": streamer["ops"] + attack["ops"],
        "streamer_ns_per_op": streamer["ns_per_op"],
        "attack_ns_per_op": attack["ns_per_op"],
    }
    result["ns_per_op"] = result["seconds"] * 1e9 / result["ops"]
    result["checksum"] = result["ops"]
    return result


def bench_machine_build(builds: int) -> Dict[str, float]:
    """``Machine(i7_920())`` — the machine every trial builds.

    ``allocated_sets`` counts the cache sets a fresh machine holds:
    set storage is allocated when a trace first touches the hierarchy,
    so it is 0, and rate-block trials (Table II) never pay for it.
    """

    def loop() -> int:
        for _ in range(builds):
            Machine(i7_920())
        return builds

    result = _timed(loop)
    machine = Machine(i7_920())
    result["allocated_sets"] = float(sum(
        len(level._sets) for level in machine.cache.levels))
    result["checksum"] = result["allocated_sets"]
    return result


def bench_ringbuffer_drain_columnar(rows: int) -> Dict[str, float]:
    """ColumnarRing push_row/drain round-trips (the sample hot path).

    Ten event columns — the non-multiplexed K-LEB row width — pushed
    one row per "fire" and drained in half-capacity batches, matching
    the module/controller cadence.
    """
    from repro.kernel.ringbuffer import ColumnarRing

    names = ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES", "LOADS",
             "STORES", "CACHE_FLUSHES", "L1D_MISSES", "L2_MISSES",
             "LLC_REFERENCES", "LLC_MISSES")
    capacity = 1024
    ring = ColumnarRing(capacity, names)
    row = list(range(10, 110, 10))
    drained = 0

    def loop() -> int:
        nonlocal drained
        push_row = ring.push_row
        drain = ring.drain
        for index in range(rows):
            push_row(index, row)
            if index % (capacity // 2) == capacity // 2 - 1:
                drained += len(drain())
        drained += len(drain())
        return rows

    result = _timed(loop)
    result["checksum"] = float(drained)
    return result


def bench_ringbuffer_merge_drain(rows: int) -> Dict[str, float]:
    """PerCpuRing push/merging-drain round-trips (the SMP sample path).

    Four private per-CPU rings fed round-robin with interleaved
    timestamps — the shape a 4-core lockstep run produces — drained
    through the k-way ``(timestamp, cpu)`` merge in half-capacity
    batches.  This prices the merge planner on top of the plain
    columnar drain measured above.
    """
    from repro.kernel.ringbuffer import PerCpuRing

    names = ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES", "LOADS",
             "STORES", "CACHE_FLUSHES", "L1D_MISSES", "L2_MISSES",
             "LLC_REFERENCES", "LLC_MISSES")
    cpus = 4
    capacity_per_cpu = 256
    ring = PerCpuRing(capacity_per_cpu, names, cpus=cpus)
    row = list(range(10, 110, 10))
    batch = capacity_per_cpu * cpus // 2
    drained = 0

    def loop() -> int:
        nonlocal drained
        push_row = ring.push_row
        drain = ring.drain
        for index in range(rows):
            # Round-robin across CPUs with a shared clock: adjacent
            # pushes land in different rings with out-of-order keys,
            # which is exactly what the merge has to untangle.
            push_row(index & 3, index >> 2, row)
            if index % batch == batch - 1:
                drained += len(drain())
        drained += len(drain())
        return rows

    result = _timed(loop)
    result["checksum"] = float(drained)
    return result


def bench_kleb_mux_fire(fires: int) -> Dict[str, float]:
    """One multiplexed K-LEB HRTimer fire: harvest, row and push.

    The eight multiplex crosscheck events rotate in two groups every
    five fires at the paper's 100 us rate.  ``count_kernel`` lets the
    handler's own charged time move the counters, so every harvest
    folds real deltas.  The ring is drained at half capacity, matching
    the controller cadence.
    """
    from repro.experiments.multiplex import EVENTS
    from repro.tools.kleb.module import KLebModule, KLebModuleConfig
    from repro.workloads.synthetic import UniformComputeWorkload

    machine = Machine(i7_920())
    kernel = Kernel(machine, config=KernelConfig(), rng=RngStreams(1234))
    module = kernel.load_module(KLebModule())
    victim = kernel.spawn(UniformComputeWorkload(1e9))
    capacity = 1024
    module.ioctl("config", KLebModuleConfig(
        events=EVENTS, period_ns=us(100), buffer_capacity=capacity,
        count_kernel=True, multiplex_period_ns=us(500)))
    module.ioctl("start", victim.pid)
    kernel.pmu.global_enable()
    drained = 0

    def loop() -> int:
        nonlocal drained
        fire = module._timer_fire
        drain = module.buffer.drain
        for index in range(fires):
            fire(kernel.now, cpu=0)
            if index % (capacity // 2) == capacity // 2 - 1:
                drained += len(drain())
        drained += len(drain())
        return fires

    result = _timed(loop)
    result["checksum"] = float(drained + module.mux.rotations)
    return result


def bench_end_to_end(quick: bool) -> Dict[str, float]:
    """The acceptance benchmark: a table2 population plus the fig7 pair.

    Runs at ``jobs=1`` by construction — this measures single-process
    hot-path speed, not pool fan-out.
    """
    if quick:
        runs, n, secret = 2, 192, QUICK_SECRET
    else:
        runs, n, secret = 3, 384, MeltdownAttack().secret

    def loop() -> int:
        table2.run(runs=runs, n=n, period_ns=ms(10), seed=0, jobs=1)
        for program in (SecretPrinter(secret), MeltdownAttack(secret)):
            run_monitored(program, create_tool("k-leb"), events=FIG7_EVENTS,
                          period_ns=us(100), seed=0)
        run_monitored(SecretPrinter(secret), create_tool("perf-stat"),
                      events=FIG7_EVENTS, period_ns=us(100), seed=0)
        return 1

    result = _timed(loop)
    result["checksum"] = 0.0
    return result


def bench_obs_overhead(quick: bool, repeats: int = 3) -> Dict[str, float]:
    """Identical monitored run with the recorder off vs fully on.

    Off/on measurements alternate in one process, so drift (frequency
    scaling, cache state) hits both sides equally instead of folding
    into the ratio.  Two estimators are computed — best-on over
    best-off, and the median of adjacent-pair ratios — and the
    *smaller* wins: each is robust to a different noise shape (a
    lucky outlier on one side vs. a slow window straddling one pair),
    and a genuine regression moves both.  The regression gate caps
    the ratio: full tracing+metrics may cost at most 15 % on the
    end-to-end monitored path, and the obs-off half is the same code
    the other micros gate (the ``_obs is None`` guards are always
    compiled in).
    """
    from repro.obs import hooks as obs_hooks

    n, rounds = (192, 24) if quick else (192, 36)
    pairs = max(repeats, 5)

    def scenario() -> int:
        samples = 0
        for _ in range(rounds):
            result = run_monitored(
                TripleLoopMatmul(n), create_tool("k-leb"),
                events=FIG7_EVENTS, period_ns=us(100), seed=0,
            )
            samples += len(result.report.samples)
        return max(1, samples)

    scenario()  # warm allocators and import-time caches off the clock
    recorder = obs_hooks.Recorder()
    offs: List[Dict[str, float]] = []
    ons: List[Dict[str, float]] = []
    for _ in range(pairs):
        offs.append(_timed(scenario))
        obs_hooks.install(recorder)
        try:
            ons.append(_timed(scenario))
        finally:
            obs_hooks.reset()
    off = min(offs, key=lambda sample: sample["ns_per_op"])
    on = min(ons, key=lambda sample: sample["ns_per_op"])
    pair_ratios = sorted(
        on_s["ns_per_op"] / off_s["ns_per_op"]
        for on_s, off_s in zip(ons, offs)
    )
    median_ratio = pair_ratios[len(pair_ratios) // 2]
    result = dict(on)
    result["off_ns_per_op"] = off["ns_per_op"]
    result["overhead_ratio"] = min(
        on["ns_per_op"] / off["ns_per_op"], median_ratio)
    result["checksum"] = float(len(recorder.tracer))
    return result


def bench_adaptive_overhead(quick: bool, repeats: int = 3) -> Dict[str, float]:
    """Identical monitored run with the adaptive controller off vs armed.

    The "on" half arms the closed loop with a generous overhead budget,
    so the controller observes every drain cycle but never actuates —
    the sample series is bit-identical to the fixed-period run (pinned
    by the integration tests), and the measured ratio is pure
    control-loop bookkeeping: sensor sampling, EWMA/variance updates,
    and the per-cycle decision.  Same alternating off/on protocol and
    dual estimator as ``bench_obs_overhead``; the gate holds the
    adaptive-off path to the same 15 % cap.
    """
    from repro.control import ControlConfig
    from repro.tools.kleb.tool import KLebTool

    n, rounds = (192, 24) if quick else (192, 36)
    pairs = max(repeats, 5)

    observations = 0.0

    def scenario(adaptive: bool) -> int:
        nonlocal observations
        samples = 0
        for _ in range(rounds):
            tool = KLebTool(control=ControlConfig(
                overhead_budget_percent=90.0,
                min_period_ns=us(100), max_period_ns=ms(10),
            )) if adaptive else create_tool("k-leb")
            result = run_monitored(
                TripleLoopMatmul(n), tool,
                events=FIG7_EVENTS, period_ns=us(100), seed=0,
            )
            samples += len(result.report.samples)
            if adaptive:
                observations = result.report.metadata[
                    "adaptive_observations"]
        return max(1, samples)

    scenario(True)  # warm allocators and import-time caches off the clock
    offs: List[Dict[str, float]] = []
    ons: List[Dict[str, float]] = []
    for _ in range(pairs):
        offs.append(_timed(lambda: scenario(False)))
        ons.append(_timed(lambda: scenario(True)))
    off = min(offs, key=lambda sample: sample["ns_per_op"])
    on = min(ons, key=lambda sample: sample["ns_per_op"])
    pair_ratios = sorted(
        on_s["ns_per_op"] / off_s["ns_per_op"]
        for on_s, off_s in zip(ons, offs)
    )
    median_ratio = pair_ratios[len(pair_ratios) // 2]
    result = dict(on)
    result["off_ns_per_op"] = off["ns_per_op"]
    result["overhead_ratio"] = min(
        on["ns_per_op"] / off["ns_per_op"], median_ratio)
    result["checksum"] = observations
    return result


def bench_live_overhead(quick: bool, repeats: int = 3) -> Dict[str, float]:
    """Identical monitored run with the live telemetry plane off vs armed.

    The "on" half is the full ``--live`` stack: a metrics recorder with
    a non-retaining tracer feeding a flight ring, a publisher
    heartbeating onto a started snapshot bus, and the HTTP server bound
    — but *no scrapers*, so the ratio is the pure cost of arming the
    plane: the per-hook heartbeat stride, flight-ring appends, and the
    cadence-gated snapshot builds.  Same alternating off/on protocol
    and dual estimator as ``bench_obs_overhead``; the gate caps the
    armed-but-idle plane at 15 % on the end-to-end monitored path.
    """
    from repro.obs import hooks as obs_hooks
    from repro.obs.live import (
        FlightRecorder,
        LivePublisher,
        LiveServer,
        LiveState,
        SnapshotBus,
        Watchdog,
    )

    n, rounds = (192, 24) if quick else (192, 36)
    pairs = max(repeats, 5)

    def scenario() -> int:
        samples = 0
        for _ in range(rounds):
            result = run_monitored(
                TripleLoopMatmul(n), create_tool("k-leb"),
                events=FIG7_EVENTS, period_ns=us(100), seed=0,
            )
            samples += len(result.report.samples)
        return max(1, samples)

    scenario()  # warm allocators and import-time caches off the clock
    flight = FlightRecorder()
    recorder = obs_hooks.Recorder(trace=False, flight=flight)
    state = LiveState(base_metrics=recorder.registry.to_json(),
                      run_label="bench")
    watchdog = Watchdog(flight=flight)
    state.add_listener(watchdog.observe)
    bus = SnapshotBus(state)
    publisher = LivePublisher(bus)
    publisher.bind(recorder)
    recorder.publisher = publisher
    bus.start()
    server = LiveServer(state, watchdog, port=0)
    server.start()
    offs: List[Dict[str, float]] = []
    ons: List[Dict[str, float]] = []
    try:
        for _ in range(pairs):
            offs.append(_timed(scenario))
            obs_hooks.install(recorder)
            try:
                ons.append(_timed(scenario))
            finally:
                obs_hooks.reset()
    finally:
        server.stop()
        bus.stop()
    off = min(offs, key=lambda sample: sample["ns_per_op"])
    on = min(ons, key=lambda sample: sample["ns_per_op"])
    pair_ratios = sorted(
        on_s["ns_per_op"] / off_s["ns_per_op"]
        for on_s, off_s in zip(ons, offs)
    )
    median_ratio = pair_ratios[len(pair_ratios) // 2]
    result = dict(on)
    result["off_ns_per_op"] = off["ns_per_op"]
    result["overhead_ratio"] = min(
        on["ns_per_op"] / off["ns_per_op"], median_ratio)
    result["checksum"] = float(flight.recorded + bus.published)
    return result


_QUICK_SCALE = {
    "pmu_accumulate": 20_000,
    "pmu_epoch_accumulate": 20_000,
    "event_queue": 40_000,
    "hrtimer_rearm": 4_000,
    "trace_replay": 60,
    "trace_replay_batch": 60,
    "trace_replay_fresh": 6,
    "trace_plan_compile": 4,
    "machine_build": 2_000,
    "ringbuffer_drain_columnar": 100_000,
    "ringbuffer_merge_drain": 60_000,
    "kleb_mux_fire": 20_000,
}
_FULL_SCALE = {
    "pmu_accumulate": 100_000,
    "pmu_epoch_accumulate": 100_000,
    "event_queue": 200_000,
    "hrtimer_rearm": 20_000,
    "trace_replay": 300,
    "trace_replay_batch": 300,
    "trace_replay_fresh": 30,
    "trace_plan_compile": 12,
    "machine_build": 10_000,
    "ringbuffer_drain_columnar": 500_000,
    "ringbuffer_merge_drain": 300_000,
    "kleb_mux_fire": 100_000,
}


def _best_of(fn: Callable[[], Dict[str, float]],
             repeats: int) -> Dict[str, float]:
    """Re-run a benchmark and keep the fastest repeat.

    Noise on a shared host is one-sided — GC pauses, scheduler
    preemption, and cache pollution only ever *add* time — so the
    minimum is the stable estimator, and what makes the 25 % CI gate
    usable on short quick-mode runs.
    """
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        result = fn()
        if best is None or result["ns_per_op"] < best["ns_per_op"]:
            best = result
    assert best is not None
    return best


def run_suite(quick: bool = False,
              repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run every benchmark; return name -> metrics (with ``calibrated``)."""
    scale = _QUICK_SCALE if quick else _FULL_SCALE
    results: Dict[str, Dict[str, float]] = {}
    calibration = _best_of(bench_calibration, repeats)
    results["calibration"] = calibration
    results["pmu_accumulate"] = _best_of(
        lambda: bench_pmu_accumulate(scale["pmu_accumulate"]), repeats)
    results["pmu_epoch_accumulate"] = _best_of(
        lambda: bench_pmu_epoch_accumulate(scale["pmu_epoch_accumulate"]),
        repeats)
    results["event_queue"] = _best_of(
        lambda: bench_event_queue(scale["event_queue"]), repeats)
    results["hrtimer_rearm"] = _best_of(
        lambda: bench_hrtimer_rearm(scale["hrtimer_rearm"]), repeats)
    results["trace_replay"] = _best_of(
        lambda: bench_trace_replay(scale["trace_replay"]), repeats)
    results["trace_replay_batch"] = _best_of(
        lambda: bench_trace_replay_batch(scale["trace_replay_batch"]),
        repeats)
    results["trace_replay_fresh"] = _best_of(
        lambda: bench_trace_replay_fresh(scale["trace_replay_fresh"]),
        repeats)
    results["trace_plan_compile"] = _best_of(
        lambda: bench_trace_plan_compile(scale["trace_plan_compile"]),
        repeats)
    results["machine_build"] = _best_of(
        lambda: bench_machine_build(scale["machine_build"]), repeats)
    results["ringbuffer_drain_columnar"] = _best_of(
        lambda: bench_ringbuffer_drain_columnar(
            scale["ringbuffer_drain_columnar"]), repeats)
    results["ringbuffer_merge_drain"] = _best_of(
        lambda: bench_ringbuffer_merge_drain(
            scale["ringbuffer_merge_drain"]), repeats)
    results["kleb_mux_fire"] = _best_of(
        lambda: bench_kleb_mux_fire(scale["kleb_mux_fire"]), repeats)
    results["end_to_end_table2_fig7"] = _best_of(
        lambda: bench_end_to_end(quick), repeats)
    results["obs_overhead"] = bench_obs_overhead(quick, repeats)
    results["adaptive_overhead"] = bench_adaptive_overhead(quick, repeats)
    results["live_overhead"] = bench_live_overhead(quick, repeats)
    calibration_ns = calibration["ns_per_op"]
    for name, metrics in results.items():
        metrics["calibrated"] = metrics["ns_per_op"] / calibration_ns
    return results
