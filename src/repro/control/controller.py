"""Closed-loop adaptive sampling controller.

The paper's central trade-off (Tables II/III) is sampling period vs
perturbation: 100 µs reveals behaviour 10 ms hides, but costs measurable
overhead.  This module closes the loop online: a pure, deterministic
decision engine that watches two signals the K-LEB controller already
observes at every drain cycle —

* the **overhead fraction**: monitoring cycles (HRTimer handler +
  drain ``copy_to_user`` + multiplex rotation) over elapsed victim
  cycles, the same handler/drain decomposition behind the Table II/III
  overhead model, EWMA-smoothed; and
* the **counter stream** itself: an EWMA mean/variance tracker on the
  primary event's rate whose z-score flags phase changes (speed up
  when the signal is moving — the ScALPEL argument).

Decisions move on an explicit degradation ladder with recovery
(:data:`~repro.control.ledger.LADDER_LEVELS`)::

    nominal -> period-lengthened -> batch-shrunk
            -> rotation-slowed -> sample-dropping

Degradation steps push onto a LIFO ladder stack; recoveries pop it, so
every degradation has a matching recovery or is still open at exit
(the conservation contract :class:`~repro.control.ledger.ControlLedger`
checks).  Below nominal lives the *boost* fast path: a phase-change
trigger drops the period toward ``min_period_ns`` for fine-grained
sampling across the transition, released back to nominal once the
signal settles.

Two rules keep the loop from oscillating or ratcheting into a
degenerate period:

* **capped steps** — the period moves by exactly ``step_factor`` (2×)
  per decision and is clamped to ``[min_period_ns, max_period_ns]``;
  the skip factor doubles up to ``skip_factor_max``;
* **hysteresis** — a step opposing the previous one is forbidden until
  ``settle_observations`` drain cycles have passed, and recovery
  requires the smoothed overhead below ``recover_fraction × budget``.
  With ``recover_fraction = 0.5`` and 2× period steps this is exactly
  the no-flap condition: undoing a period doubling doubles the
  overhead fraction, so recovery only fires when the restored level
  will still fit under the budget.

The controller draws **no randomness** and reads **no wall clock** —
every decision is a pure function of the observation sequence, which is
what makes adaptive runs bit-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.control.ledger import ControlLedger
from repro.errors import ControlError
from repro.sim.clock import ms, us

#: Ladder rung per degradation kind (see LADDER_LEVELS).
_RUNG = {"period": 1, "batch": 2, "rotate": 3, "skip": 4}


@dataclass(frozen=True)
class ControlConfig:
    """Tunables of the closed loop (pure configuration, no state)."""

    #: Hard overhead budget: monitoring cycles as a percentage of
    #: elapsed victim cycles.  The ladder engages when the smoothed
    #: fraction exceeds this.
    overhead_budget_percent: float = 2.0
    #: Period bounds.  The boost fast path may shorten the period down
    #: to ``min_period_ns``; the ladder may lengthen it up to
    #: ``max_period_ns``.
    min_period_ns: int = us(100)
    max_period_ns: int = ms(10)
    #: EWMA smoothing factor for the overhead fraction.
    overhead_alpha: float = 0.3
    #: EWMA smoothing factor for the signal mean/variance tracker.
    signal_alpha: float = 0.2
    #: Phase-change trigger: |signal - mean| > phase_z * sd.
    phase_z: float = 3.0
    #: Observations before the variance tracker may trigger.
    warmup_observations: int = 4
    #: Hysteresis window: observations that must pass before a step in
    #: the opposite direction of the previous one.
    settle_observations: int = 4
    #: Consecutive unhealthy observations before a degradation step.
    escalate_observations: int = 2
    #: Recovery threshold as a fraction of the budget (see module doc
    #: for why 0.5 is the no-flap value under 2x period steps).
    recover_fraction: float = 0.5
    #: Boost jump: period -> max(min_period, period // boost_factor).
    boost_factor: int = 8
    #: Capped ladder step for the period (and boost release).
    step_factor: int = 2
    #: Drain-read cap while on the batch-shrunk rung.
    drain_batch_shrunk: int = 256
    #: Multiplex rotation slowdown multiplier on the rotation-slowed rung.
    rotate_slowdown_factor: int = 2
    #: Ceiling for the sample-dropping rung's skip factor.
    skip_factor_max: int = 8

    def validate(self) -> None:
        if not 0.0 < self.overhead_budget_percent <= 100.0:
            raise ControlError(
                f"overhead budget must be in (0, 100] percent, "
                f"got {self.overhead_budget_percent}"
            )
        if self.min_period_ns <= 0 or self.max_period_ns < self.min_period_ns:
            raise ControlError(
                f"period bounds must satisfy 0 < min <= max, got "
                f"[{self.min_period_ns}, {self.max_period_ns}]"
            )
        for name in ("overhead_alpha", "signal_alpha"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ControlError(f"{name} must be in (0, 1], got {value}")
        if self.phase_z <= 0:
            raise ControlError(f"phase_z must be positive, got {self.phase_z}")
        if not 0.0 < self.recover_fraction < 1.0:
            raise ControlError(
                f"recover_fraction must be in (0, 1), "
                f"got {self.recover_fraction}"
            )
        for name in ("warmup_observations", "settle_observations",
                     "escalate_observations"):
            if getattr(self, name) < 1:
                raise ControlError(f"{name} must be >= 1")
        for name in ("boost_factor", "step_factor",
                     "rotate_slowdown_factor", "skip_factor_max"):
            if getattr(self, name) < 2:
                raise ControlError(f"{name} must be >= 2")
        if self.drain_batch_shrunk < 1:
            raise ControlError(
                f"drain_batch_shrunk must be >= 1, "
                f"got {self.drain_batch_shrunk}"
            )


@dataclass(frozen=True)
class SensorReading:
    """What one drain cycle observed (all values already computed —
    the controller steers, the sensor never does)."""

    now_ns: int            # simulated time of the read syscall
    monitor_ns: int        # cumulative monitoring cost (handler+drain+rotate)
    signal: Optional[float]  # primary-event rate over the batch (None: no data)
    pressure: float        # buffer high-watermark fraction since last read
    dropped: int           # cumulative buffer drops
    paused: bool           # safety stop observed before the drain


@dataclass(frozen=True)
class ControlDecision:
    """The controller's answer to one observation."""

    action: Optional[str]      # ledger action taken, or None
    changed: bool              # module actuation (period/skip/rotate) needed
    period_ns: int
    skip_factor: int
    rotate_slowdown: int
    drain_max_items: Optional[int]
    level: int
    overhead_percent: Optional[float]
    phase_shift: bool


class AdaptiveController:
    """Deterministic decision engine for one adaptive session."""

    def __init__(self, config: ControlConfig, nominal_period_ns: int,
                 multiplexed: bool = False,
                 min_period_floor_ns: int = 0) -> None:
        config.validate()
        self.config = config
        self.min_period_ns = max(config.min_period_ns, min_period_floor_ns)
        self.max_period_ns = max(config.max_period_ns, self.min_period_ns)
        self.nominal_period_ns = min(
            max(int(nominal_period_ns), self.min_period_ns),
            self.max_period_ns,
        )
        self.multiplexed = multiplexed
        self.ledger = ControlLedger()

        # Actuation state (what the module should be running with).
        self.period_ns = self.nominal_period_ns
        self.skip_factor = 1
        self.rotate_slowdown = 1
        self.drain_max_items: Optional[int] = None
        self.boosted = False

        # LIFO degradation stack: (kind, value to restore on recovery).
        self._ladder: List[Tuple[str, int]] = []

        # Sensor state.
        self._last: Optional[SensorReading] = None
        self._overhead_ewma: Optional[float] = None
        self._signal_mean: Optional[float] = None
        self._signal_var = 0.0
        self._signal_seen = 0
        self._last_dropped = 0

        # Hysteresis state.  Direction: +1 = more aggressive monitoring
        # (recover, boost), -1 = cheaper monitoring (degrade, release).
        self._last_dir = 0
        self._since_step = 10 ** 9
        self._unhealthy_streak = 0
        self._healthy_streak = 0
        self._quiet_streak = 0

        # Accounting for the session report.
        self.observations = 0
        self.min_period_seen = self.period_ns
        self.max_period_seen = self.period_ns
        self.overhead_percent_last: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Current ladder level (0 = nominal; the deepest open rung)."""
        if not self._ladder:
            return 0
        return _RUNG[self._ladder[-1][0]]

    @property
    def depth(self) -> int:
        """Open degradations (ladder stack size)."""
        return len(self._ladder)

    # ------------------------------------------------------------------
    # The control law
    # ------------------------------------------------------------------
    def observe(self, reading: SensorReading) -> ControlDecision:
        """Fold one drain-cycle observation into the loop and decide."""
        self.observations += 1
        self._since_step += 1
        previous = self._last
        self._last = reading

        # Overhead sensor: windowed fraction, EWMA-smoothed.
        if previous is not None:
            elapsed = reading.now_ns - previous.now_ns
            monitor = reading.monitor_ns - previous.monitor_ns
            if elapsed > 0 and monitor >= 0:
                fraction = 100.0 * monitor / elapsed
                if self._overhead_ewma is None:
                    self._overhead_ewma = fraction
                else:
                    alpha = self.config.overhead_alpha
                    self._overhead_ewma = (alpha * fraction
                                           + (1.0 - alpha)
                                           * self._overhead_ewma)
        self.overhead_percent_last = self._overhead_ewma

        # Phase-change trigger: z-score of the signal against its
        # EWMA mean/variance (warmed up first so startup transients
        # do not fire it).
        phase_shift = self._update_signal(reading.signal)

        # Buffer-pressure sensor: the safety stop engaging, or fresh
        # drops since the last look, is monitoring-health degradation
        # regardless of the overhead fraction.
        fresh_drops = reading.dropped > self._last_dropped
        self._last_dropped = reading.dropped
        pressured = reading.paused or fresh_drops

        action: Optional[str] = None
        changed = False
        budget = self.config.overhead_budget_percent
        over_budget = (self._overhead_ewma is not None
                       and self._overhead_ewma > budget)
        healthy = (not pressured
                   and (self._overhead_ewma is None
                        or self._overhead_ewma
                        < budget * self.config.recover_fraction))

        if over_budget or pressured:
            self._unhealthy_streak += 1
            self._healthy_streak = 0
            if (self._unhealthy_streak >= self.config.escalate_observations
                    and self._can_step(-1)):
                action, changed = self._step_down(reading)
                if action is not None:
                    self._unhealthy_streak = 0
        else:
            self._unhealthy_streak = 0
            if healthy:
                self._healthy_streak += 1
            else:
                self._healthy_streak = 0
            if (self._ladder
                    and self._healthy_streak >= self.config.settle_observations
                    and self._can_step(+1)):
                action, changed = self._recover(reading)
                if action is not None:
                    self._healthy_streak = 0
            elif (not self._ladder and phase_shift and not self.boosted
                    and self.period_ns > self.min_period_ns
                    and healthy and self._can_step(+1)):
                action, changed = self._boost(reading)

        # Boost release: once the signal goes quiet for a settle
        # window, relax back toward nominal one capped step at a time.
        if self.boosted and action is None:
            if phase_shift:
                self._quiet_streak = 0
            else:
                self._quiet_streak += 1
                if (self._quiet_streak >= self.config.settle_observations
                        and self._can_step(-1)):
                    action, changed = self._boost_release(reading)
                    if action is not None:
                        self._quiet_streak = 0

        return ControlDecision(
            action=action,
            changed=changed,
            period_ns=self.period_ns,
            skip_factor=self.skip_factor,
            rotate_slowdown=self.rotate_slowdown,
            drain_max_items=self.drain_max_items,
            level=self.level,
            overhead_percent=self._overhead_ewma,
            phase_shift=phase_shift,
        )

    # ------------------------------------------------------------------
    # Signal tracker
    # ------------------------------------------------------------------
    def _update_signal(self, signal: Optional[float]) -> bool:
        if signal is None:
            return False
        triggered = False
        if self._signal_mean is None:
            self._signal_mean = signal
            self._signal_var = 0.0
        else:
            deviation = signal - self._signal_mean
            if self._signal_seen >= self.config.warmup_observations:
                sd = math.sqrt(self._signal_var)
                if sd > 0 and abs(deviation) > self.config.phase_z * sd:
                    triggered = True
            alpha = self.config.signal_alpha
            self._signal_mean += alpha * deviation
            self._signal_var = ((1.0 - alpha)
                                * (self._signal_var
                                   + alpha * deviation * deviation))
        self._signal_seen += 1
        return triggered

    # ------------------------------------------------------------------
    # Hysteresis
    # ------------------------------------------------------------------
    def _can_step(self, direction: int) -> bool:
        """Monotone hysteresis: no opposing steps within one settle
        window.  Same-direction steps only wait for their own streak
        conditions."""
        if self._last_dir == 0 or direction == self._last_dir:
            return True
        return self._since_step >= self.config.settle_observations

    def _stepped(self, direction: int) -> None:
        self._last_dir = direction
        self._since_step = 0

    def _note_period(self) -> None:
        self.min_period_seen = min(self.min_period_seen, self.period_ns)
        self.max_period_seen = max(self.max_period_seen, self.period_ns)

    # ------------------------------------------------------------------
    # Ladder steps
    # ------------------------------------------------------------------
    def _step_down(self, reading: SensorReading
                   ) -> Tuple[Optional[str], bool]:
        """One capped step toward cheaper monitoring."""
        if self.boosted:
            return self._boost_release(reading)
        level_from = self.level
        config = self.config
        if self.level <= 1 and self.period_ns < self.max_period_ns:
            self._ladder.append(("period", self.period_ns))
            self.period_ns = min(self.max_period_ns,
                                 self.period_ns * config.step_factor)
            self._note_period()
            detail = f"period -> {self.period_ns / 1e3:g}us"
            changed = True
        elif self.level <= 2 and self.drain_max_items is None:
            self._ladder.append(("batch", 0))
            self.drain_max_items = config.drain_batch_shrunk
            detail = f"drain batches capped at {self.drain_max_items}"
            changed = False  # applied controller-side, no ioctl needed
        elif (self.level <= 3 and self.multiplexed
                and self.rotate_slowdown == 1):
            self._ladder.append(("rotate", 1))
            self.rotate_slowdown = config.rotate_slowdown_factor
            detail = f"rotation slowed x{self.rotate_slowdown}"
            changed = True
        elif self.skip_factor < config.skip_factor_max:
            self._ladder.append(("skip", self.skip_factor))
            self.skip_factor = min(config.skip_factor_max,
                                   self.skip_factor * config.step_factor)
            detail = f"recording every {self.skip_factor}th fire"
            changed = True
        else:
            # Fully degraded: nothing left to trade away.
            return None, False
        self._stepped(-1)
        self.ledger.record(reading.now_ns, "degrade", level_from,
                           self.level, self.period_ns, detail)
        return "degrade", changed

    def _recover(self, reading: SensorReading) -> Tuple[Optional[str], bool]:
        """Pop the most recent degradation (LIFO recovery)."""
        if not self._ladder:
            return None, False
        level_from = self.level
        kind, restore = self._ladder.pop()
        changed = True
        if kind == "period":
            self.period_ns = restore
            self._note_period()
            detail = f"period -> {self.period_ns / 1e3:g}us"
        elif kind == "batch":
            self.drain_max_items = None
            detail = "drain batches uncapped"
            changed = False
        elif kind == "rotate":
            self.rotate_slowdown = restore
            detail = "rotation restored"
        else:  # skip
            self.skip_factor = restore
            detail = (f"recording every {self.skip_factor}th fire"
                      if self.skip_factor > 1 else "recording every fire")
        self._stepped(+1)
        self.ledger.record(reading.now_ns, "recover", level_from,
                           self.level, self.period_ns, detail)
        return "recover", changed

    # ------------------------------------------------------------------
    # Boost fast path (below nominal)
    # ------------------------------------------------------------------
    def _boost(self, reading: SensorReading) -> Tuple[Optional[str], bool]:
        new_period = max(self.min_period_ns,
                         self.period_ns // self.config.boost_factor)
        if new_period >= self.period_ns:
            return None, False
        self.period_ns = new_period
        self._note_period()
        self.boosted = True
        self._quiet_streak = 0
        self._stepped(+1)
        self.ledger.record(reading.now_ns, "boost", 0, 0, self.period_ns,
                           f"phase shift: period -> "
                           f"{self.period_ns / 1e3:g}us")
        return "boost", True

    def _boost_release(self, reading: SensorReading
                       ) -> Tuple[Optional[str], bool]:
        if not self.boosted:
            return None, False
        self.period_ns = min(self.nominal_period_ns,
                             self.period_ns * self.config.step_factor)
        self._note_period()
        if self.period_ns >= self.nominal_period_ns:
            self.boosted = False
        self._stepped(-1)
        self.ledger.record(reading.now_ns, "boost-release", 0, 0,
                           self.period_ns,
                           f"period -> {self.period_ns / 1e3:g}us")
        return "boost-release", True
