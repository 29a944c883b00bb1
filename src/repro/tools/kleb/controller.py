"""The K-LEB user-space controller process.

Responsibilities (paper Fig. 1, right half):

* configure the kernel module and select the monitored PID (``ioctl``);
* start/stop collection;
* periodically wake up, drain pooled samples from kernel memory with a
  batched ``read``, and log them to the file system from user space
  (kernel developers recommend against file I/O in kernel space — §III).

The controller's logging work is ordinary user-space execution on the
same machine, so its cost competes with the monitored program for CPU
time — this is where most of K-LEB's (small) overhead comes from.

Degradation/recovery behaviour (exercised by :mod:`repro.faults`):

* transient ``ioctl``/``read`` failures are retried with capped
  exponential backoff (``_BACKOFF_BASE_NS`` doubling up to
  ``_BACKOFF_CAP_NS``) before giving up;
* when a drain observes the module's safety stop (paused buffer) or
  fresh drops, the controller immediately issues recovery reads to
  free the pool, then *shortens* its drain interval — halving down to
  the jiffy floor — and only restores the nominal interval after a
  run of healthy cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.control import AdaptiveController, SensorReading
from repro.errors import TransientModuleError
from repro.obs import hooks as _obs_hooks
from repro.samples import SampleColumns
from repro.sim.clock import ms
from repro.tools import costs
from repro.tools.kleb.module import (KLebAdaptRequest, KLebModule,
                                     KLebModuleConfig)
from repro.workloads.base import Block, Program, RateBlock, SyscallBlock

_LOG_RATES = {"LOADS": 0.38, "STORES": 0.27, "BRANCHES": 0.12}

# Retry/backoff tunables for transient device failures.
_MAX_ATTEMPTS = 8
_BACKOFF_BASE_NS = ms(1)
_BACKOFF_CAP_NS = ms(64)

# Adaptive drain: healthy cycles required before stretching the
# shortened interval back toward nominal, and the cap on back-to-back
# recovery reads issued when a pause is observed.
_HEALTHY_CYCLES_TO_RESTORE = 4
_RECOVERY_READS_MAX = 8


def _backoff_ns(attempt: int) -> int:
    """Capped exponential backoff delay for retry ``attempt`` (0-based)."""
    return min(_BACKOFF_BASE_NS << attempt, _BACKOFF_CAP_NS)


@dataclass
class ControllerState:
    """Shared state between the controller program and the tool session
    (report metadata and the ``kleb_*`` metrics read its counts)."""

    # Drained batches, kept whole; the session concatenates them into
    # one series at finalize.
    sample_batches: List[SampleColumns] = field(default_factory=list)
    totals: Optional[Dict[str, int]] = None
    stop_requested: bool = False
    started: bool = False
    log_bytes: int = 0
    # Multiplexing accounting captured from the stop ioctl (None when
    # the run was not multiplexed): group count, rotations, and the
    # time_enabled / per-group time_running (CORE_CYCLES units) behind
    # the scaled totals.
    mux_accounting: Optional[Dict[str, object]] = None
    # Degradation/recovery accounting (all zero on a healthy run).
    # A retry is a failed attempt; a recovery is a success after one.
    ioctl_retries: int = 0
    read_retries: int = 0
    ioctl_recoveries: int = 0
    read_recoveries: int = 0
    recovery_reads: int = 0
    drain_shrinks: int = 0
    drain_restores: int = 0
    starved_cycles: int = 0
    # Closed-loop adaptive control (None when --adapt is off).
    control: Optional[AdaptiveController] = None
    adapt_ioctls: int = 0
    sensor_glitches: int = 0
    frozen_observations: int = 0


class KLebControllerProgram(Program):
    """Block stream of the controller process.

    The program is a *generator*: each decision (how much to drain,
    when to stop) is made when the previous block finishes executing,
    interleaved with the rest of the simulated system — just like a
    real process.
    """

    def __init__(self, module: KLebModule, target_pid: int,
                 module_config: KLebModuleConfig, state: ControllerState,
                 cost_factor: float = 1.0,
                 start_target: bool = True,
                 adaptive: Optional[AdaptiveController] = None) -> None:
        self.name = "k-leb-controller"
        self.module = module
        self.target_pid = target_pid
        self.module_config = module_config
        self.state = state
        self.cost_factor = cost_factor
        self.start_target = start_target
        drain_every = costs.KLEB_DRAIN_EVERY_PERIODS * module_config.period_ns
        self.drain_interval_ns = max(drain_every, ms(10))
        self._adaptive = adaptive
        state.control = adaptive
        # Drain-batch cap while on the batch-shrunk ladder rung.
        self._drain_max_items: Optional[int] = None
        # The phase-change signal tracks the first requested event.
        self._signal_event = (module_config.resolved_events()[0]
                              if adaptive is not None else None)
        self._obs = _obs_hooks.active()
        if self._obs is not None:
            self._obs.controllers.append(state)

    # ------------------------------------------------------------------
    # Retryable syscall helpers
    # ------------------------------------------------------------------
    def _retrying(self, site: str, call, label: str,
                  backoff_label: str) -> Iterator[Block]:
        """Yield ``site`` syscall blocks running ``call`` until it sticks.

        ``site`` (``"ioctl"`` or ``"read"``) names both the syscall and
        the state counts it charges: ``<site>_retries`` per failed
        attempt, ``<site>_recoveries`` per success after a failure.
        Transient (injected) failures back off exponentially, capped;
        after ``_MAX_ATTEMPTS`` the last error propagates — at that
        point the device is persistently broken and the trial fails
        upward to the runner's quarantine logic.
        """
        state = self.state
        outcome: Dict[str, object] = {}

        def handler(kernel, task):
            try:
                result = call(kernel, task)
            except TransientModuleError as error:
                outcome["error"] = error
                return -1
            outcome["ok"] = True
            return result

        for attempt in range(_MAX_ATTEMPTS):
            yield SyscallBlock(site, handler=handler, label=label)
            if outcome.pop("ok", False):
                if attempt:
                    name = f"{site}_recoveries"
                    setattr(state, name, getattr(state, name) + 1)
                return
            name = f"{site}_retries"
            setattr(state, name, getattr(state, name) + 1)
            if attempt == _MAX_ATTEMPTS - 1:
                raise outcome["error"]  # type: ignore[misc]
            delay = _backoff_ns(attempt)
            yield SyscallBlock(
                "nanosleep",
                handler=lambda kernel, task, d=delay: kernel.sleep_current(
                    d, high_resolution=True
                ),
                label=backoff_label,
            )

    def _read_and_log(self, holder: Dict[str, object]) -> Iterator[Block]:
        """One batched read (with retry/backoff) plus user-space logging.

        Fills ``holder`` with the drained batch size and the
        back-pressure observations the read syscall returns alongside
        the samples (paused flag, cumulative drop count).
        """
        module = self.module
        state = self.state
        batch = ()

        def do_read(kernel, task):
            nonlocal batch
            buffer = module.buffer
            # Observed *before* the drain: a full drain always lifts
            # the safety stop, so the post-drain flag would hide every
            # pause episode from user space.
            paused = buffer.paused if buffer is not None else False
            batch = module.read(self._drain_max_items)
            holder["batch_len"] = len(batch)
            holder["paused"] = paused
            holder["dropped"] = buffer.dropped if buffer is not None else 0
            if self._adaptive is not None:
                self._capture_sensor(kernel, buffer, batch, holder)
            return len(batch)

        yield from self._retrying("read", do_read, "read-samples",
                                  "read-backoff")
        if batch:
            # Zero-copy hand-off: the drained columns are kept whole;
            # no per-sample dicts are ever built on this path.
            state.sample_batches.append(batch)
            # CSV formatting in user space, then one buffered write.
            instructions = (
                len(batch)
                * costs.KLEB_LOG_USER_INSTRUCTIONS_PER_SAMPLE
                * self.cost_factor
            )
            state.log_bytes += len(batch) * 64
            yield RateBlock(instructions=instructions,
                            rates=dict(_LOG_RATES), cpi=1.0,
                            label="format-log")
            yield SyscallBlock("write", label="write-log")

    # ------------------------------------------------------------------
    # Adaptive control (closed loop over the drain cycle)
    # ------------------------------------------------------------------
    def _capture_sensor(self, kernel, buffer, batch, holder) -> None:
        """Everything the closed loop observes, captured inside the
        read syscall so the observation is one consistent snapshot."""
        stats = self.module.stats
        holder["now"] = kernel.now
        # The Table II/III monitoring-cost decomposition: handler time
        # plus drain copy_to_user plus multiplex rotation, cumulative.
        holder["monitor_ns"] = (stats.handler_time_ns
                                 + stats.drain_copy_ns + stats.rotate_ns)
        if buffer is not None and buffer.capacity > 0:
            holder["pressure"] = (buffer.take_high_watermark()
                                   / buffer.capacity)
        else:
            holder["pressure"] = 0.0
        signal = None
        if len(batch) >= 2:
            timestamps = batch.timestamps
            span = timestamps[-1] - timestamps[0]
            if span > 0:
                try:
                    column = batch.column(self._signal_event)
                    first, last = column[0], column[-1]
                except KeyError:
                    first = last = 0
                # Per-microsecond rate: spacing-independent, so the
                # tracker survives its own period changes.
                signal = (last - first) / span * 1000.0
        holder["signal"] = signal

    def _adaptive_step(self, holder: Dict[str, object],
                       interval_ns: int) -> Iterator[Block]:
        """Run one closed-loop decision; returns the new drain interval.

        Control faults land here: a frozen decision window skips the
        observation entirely, a sensor glitch discards the reading —
        either way the loop's EWMAs never see garbage.  When a decision
        changes the module's knobs, the adapt ioctl carries *absolute*
        targets computed exactly once, so the transient-failure retry
        path re-applies the same request instead of compounding a
        relative step (the double-shrink bug this design exists for).
        """
        ctrl = self._adaptive
        assert ctrl is not None
        module = self.module
        state = self.state
        obs = self._obs
        now = int(holder.get("now", module.kernel.now))
        faults = module.kernel.faults
        if faults.control_frozen(now):
            state.frozen_observations += 1
            if obs is not None:
                obs.control_frozen(now)
            return interval_ns
        if faults.control_sensor_glitch(now):
            state.sensor_glitches += 1
            return interval_ns
        reading = SensorReading(
            now_ns=now,
            monitor_ns=int(holder.get("monitor_ns", 0)),
            signal=holder.get("signal"),  # type: ignore[arg-type]
            pressure=float(holder.get("pressure", 0.0)),
            dropped=int(holder.get("dropped", 0)),
            paused=bool(holder.get("paused", False)),
        )
        decision = ctrl.observe(reading)
        if obs is not None:
            obs.control_observation(
                now, decision.overhead_percent, decision.level,
                budget_percent=ctrl.config.overhead_budget_percent)
            if decision.action is not None:
                obs.control_step(now, decision.action, decision.level,
                                 decision.period_ns)
        self._drain_max_items = decision.drain_max_items
        if decision.changed:
            request = KLebAdaptRequest(
                period_ns=decision.period_ns,
                skip_factor=decision.skip_factor,
                rotate_slowdown=decision.rotate_slowdown,
            )
            yield from self._retrying(
                "ioctl", lambda kernel, task: module.ioctl("adapt", request),
                "ioctl-adapt", "ioctl-adapt-backoff")
            state.adapt_ioctls += 1
        # Retarget the nominal drain interval to track the active
        # period (same drain-every-N-periods policy as construction).
        # A pressure-shortened interval is preserved — only capped, so
        # the shrink/restore machinery keeps working against the new
        # nominal.
        was_nominal = interval_ns >= self.drain_interval_ns
        target = max(ms(10),
                     costs.KLEB_DRAIN_EVERY_PERIODS * decision.period_ns)
        self.drain_interval_ns = target
        return target if was_nominal else min(interval_ns, target)

    # ------------------------------------------------------------------
    # The program
    # ------------------------------------------------------------------
    def blocks(self) -> Iterator[Block]:
        module = self.module
        state = self.state
        obs = self._obs

        yield from self._retrying(
            "ioctl",
            lambda kernel, task: module.ioctl("config", self.module_config),
            "ioctl-config", "ioctl-config-backoff")

        def do_start(kernel, task):
            module.ioctl("start", self.target_pid)
            if self.start_target:
                kernel.start_task(kernel.task(self.target_pid))
            state.started = True
            return True

        yield from self._retrying("ioctl", do_start, "ioctl-start",
                                  "ioctl-start-backoff")

        interval_ns = self.drain_interval_ns
        floor_ns = max(ms(10), 2 * self.module_config.period_ns)
        healthy_cycles = 0
        last_dropped = 0
        holder: Dict[str, object] = {}
        while True:
            starve = module.kernel.faults.starve_factor(module.kernel.now)
            if starve > 1.0:
                state.starved_cycles += 1
            sleep_ns = int(interval_ns * starve)
            yield SyscallBlock(
                "nanosleep",
                handler=lambda kernel, task, d=sleep_ns: kernel.sleep_current(
                    d
                ),
                label="sleep-drain",
            )

            cycle_start = module.kernel.now
            yield from self._read_and_log(holder)
            paused = bool(holder.get("paused", False))
            dropped = int(holder.get("dropped", 0))
            if obs is not None:
                # The drain-cycle span covers read + format + log write
                # (generator resumption times are simulated block
                # completion times).
                obs.drain_cycle(cycle_start, module.kernel.now,
                                int(holder.get("batch_len", 0)),
                                paused, interval_ns)

            if paused or dropped > last_dropped:
                # The safety stop engaged (or fresh drops) since the
                # last look: instead of sleeping through another full
                # (possibly starved) window, drain again on a short
                # high-resolution nap until the pressure clears...
                recovery = 0
                while recovery < _RECOVERY_READS_MAX:
                    recovery += 1
                    state.recovery_reads += 1
                    nap_ns = floor_ns // 2
                    yield SyscallBlock(
                        "nanosleep",
                        handler=lambda kernel, task, d=nap_ns:
                            kernel.sleep_current(d, high_resolution=True),
                        label="recovery-nap",
                    )
                    yield from self._read_and_log(holder)
                    grown = int(holder.get("dropped", 0)) > dropped
                    dropped = int(holder.get("dropped", 0))
                    if not (bool(holder.get("paused", False)) or grown):
                        break
                # ...and drain more often until the pressure clears.
                shortened = max(floor_ns, interval_ns // 2)
                if shortened < interval_ns:
                    interval_ns = shortened
                    state.drain_shrinks += 1
                    if obs is not None:
                        obs.drain_shrunk(module.kernel.now, interval_ns)
                healthy_cycles = 0
                last_dropped = dropped
            else:
                healthy_cycles += 1
                if (healthy_cycles >= _HEALTHY_CYCLES_TO_RESTORE
                        and interval_ns < self.drain_interval_ns):
                    interval_ns = min(self.drain_interval_ns,
                                      interval_ns * 2)
                    state.drain_restores += 1
                    if obs is not None:
                        obs.drain_restored(module.kernel.now, interval_ns)
                    healthy_cycles = 0

            if self._adaptive is not None:
                interval_ns = yield from self._adaptive_step(holder,
                                                             interval_ns)

            if state.stop_requested and not module.collecting \
                    and module.pending_samples == 0:
                break

        def do_stop(kernel, task):
            if module.collecting:
                module.ioctl("stop")
            state.totals = dict(module.final_totals or {})
            mux = module.mux
            if mux is not None:
                state.mux_accounting = {
                    "groups": len(mux.plan.groups),
                    "rotations": mux.rotations,
                    "time_enabled_cycles": mux.enabled_cycles,
                    "time_running_cycles": list(mux.running_cycles),
                }
            return state.totals

        yield from self._retrying("ioctl", do_stop, "ioctl-stop",
                                  "ioctl-stop-backoff")
