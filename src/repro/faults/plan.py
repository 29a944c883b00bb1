"""Deterministic fault plans.

A :class:`FaultPlan` is pure configuration: an injection probability
and magnitude for every fault site the simulation exposes, plus the
seed that makes schedules reproducible.  The plan itself never draws
randomness — :class:`~repro.faults.inject.FaultInjector` derives
per-trial streams from ``(plan.seed, trial)`` via
:mod:`repro.sim.rng`, so identical plans produce bit-identical fault
schedules regardless of run order or worker count.

Fault sites (see ISSUE 2 / paper §III "safety mechanism"):

* HRTimer: extra fire latency and missed deadlines;
* K-LEB device interface: transient ``ioctl``/``read`` failures;
* ring buffer: capacity squeezes (memory pressure on the sample pool);
* controller: forced starvation (drain cycles stretched);
* PMU: counter preloads that force 48-bit wraparound mid-run;
* runner: trial-level worker crashes, timeouts, and persistent
  failures that must be quarantined.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import FaultError
from repro.sim.rng import RngStreams

#: Attempts that always fail — marks a persistently-failing trial.
ALWAYS_FAILS = 1_000_000


@dataclass(frozen=True)
class TrialFate:
    """What the plan has in store for one trial of the runner."""

    kind: Optional[str]        # None | "crash" | "timeout" | "persistent"
    failing_attempts: int      # attempts that fail before one succeeds


BENIGN_FATE = TrialFate(kind=None, failing_attempts=0)

# CLI spec key -> (field name, parser).  Probabilities are [0, 1].
_SPEC_KEYS = {
    "seed": ("seed", int),
    "timer_jitter": ("timer_extra_jitter_prob", float),
    "timer_jitter_ns": ("timer_extra_jitter_ns", int),
    "timer_miss": ("timer_miss_prob", float),
    "ioctl": ("ioctl_failure_prob", float),
    "read": ("read_failure_prob", float),
    "squeeze": ("squeeze_prob", float),
    "squeeze_factor": ("squeeze_factor", float),
    "squeeze_fires": ("squeeze_fires", int),
    "starve": ("starve_prob", float),
    "starve_factor": ("starve_factor", float),
    "pmu_wrap": ("pmu_wrap_margin", int),
    "control_sensor": ("control_sensor_prob", float),
    "control_freeze": ("control_freeze_prob", float),
    "control_freeze_cycles": ("control_freeze_cycles", int),
    "crash": ("trial_crash_prob", float),
    "timeout": ("trial_timeout_prob", float),
    "persistent": ("trial_persistent_prob", float),
}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault-injection schedule configuration."""

    seed: int = 0

    # HRTimer faults (kernel/hrtimer.py)
    timer_extra_jitter_prob: float = 0.0   # per fire
    timer_extra_jitter_ns: int = 50_000    # latency scale when injected
    timer_miss_prob: float = 0.0           # per fire: handler never runs

    # Device-interface faults (tools/kleb/module.py)
    ioctl_failure_prob: float = 0.0        # per ioctl, transient
    read_failure_prob: float = 0.0         # per read, transient

    # Ring-buffer capacity squeezes (kernel/ringbuffer.py)
    squeeze_prob: float = 0.0              # per timer fire: episode starts
    squeeze_factor: float = 0.25           # effective capacity fraction
    squeeze_fires: int = 200               # episode length in fires

    # Forced controller starvation (tools/kleb/controller.py)
    starve_prob: float = 0.0               # per drain cycle
    starve_factor: float = 8.0             # sleep multiplier when starved

    # PMU counter wraparound (hw/pmu.py): preload programmable counters
    # to 2^48 - margin so they wrap early in the run.
    pmu_wrap_margin: Optional[int] = None

    # Adaptive-control faults (control/controller.py sensor path):
    # glitched sensor readings the controller must discard, and frozen
    # decision windows where the loop cannot act.
    control_sensor_prob: float = 0.0       # per drain cycle: reading lost
    control_freeze_prob: float = 0.0       # per drain cycle: episode starts
    control_freeze_cycles: int = 8         # frozen episode length in cycles

    # Trial-level faults (experiments/runner.py, experiments/parallel.py)
    trial_crash_prob: float = 0.0          # transient worker crash
    trial_timeout_prob: float = 0.0        # one attempt blows its deadline
    trial_persistent_prob: float = 0.0     # every attempt fails: quarantine

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kernel_active(self) -> bool:
        """Any in-simulation fault site enabled (needs an injector)."""
        return (
            self.timer_extra_jitter_prob > 0
            or self.timer_miss_prob > 0
            or self.ioctl_failure_prob > 0
            or self.read_failure_prob > 0
            or self.squeeze_prob > 0
            or self.starve_prob > 0
            or self.pmu_wrap_margin is not None
            or self.control_sensor_prob > 0
            or self.control_freeze_prob > 0
        )

    @property
    def trial_active(self) -> bool:
        """Any trial-level fault enabled (needs the retry runner)."""
        return (
            self.trial_crash_prob > 0
            or self.trial_timeout_prob > 0
            or self.trial_persistent_prob > 0
        )

    @property
    def active(self) -> bool:
        return self.kernel_active or self.trial_active

    def validate(self) -> None:
        for spec in fields(self):
            if spec.name.endswith("_prob"):
                value = getattr(self, spec.name)
                if not 0.0 <= value <= 1.0:
                    raise FaultError(
                        f"{spec.name} must be in [0, 1], got {value}"
                    )
        if self.squeeze_factor <= 0 or self.squeeze_factor > 1:
            raise FaultError(
                f"squeeze_factor must be in (0, 1], got {self.squeeze_factor}"
            )
        if self.squeeze_fires <= 0:
            raise FaultError(
                f"squeeze_fires must be positive, got {self.squeeze_fires}"
            )
        if self.starve_factor < 1.0:
            raise FaultError(
                f"starve_factor must be >= 1, got {self.starve_factor}"
            )
        if self.timer_extra_jitter_ns < 0:
            raise FaultError("timer_extra_jitter_ns must be non-negative")
        if self.pmu_wrap_margin is not None and self.pmu_wrap_margin <= 0:
            raise FaultError(
                f"pmu_wrap_margin must be positive, got {self.pmu_wrap_margin}"
            )
        if self.control_freeze_cycles <= 0:
            raise FaultError(
                f"control_freeze_cycles must be positive, "
                f"got {self.control_freeze_cycles}"
            )
        total = (self.trial_crash_prob + self.trial_timeout_prob
                 + self.trial_persistent_prob)
        if total > 1.0:
            raise FaultError(
                f"trial fault probabilities sum to {total}, must be <= 1"
            )

    # ------------------------------------------------------------------
    # CLI spec parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,key=value`` CLI spec.

        Keys: ``seed``, ``timer_jitter``, ``timer_jitter_ns``,
        ``timer_miss``, ``ioctl``, ``read``, ``squeeze``,
        ``squeeze_factor``, ``squeeze_fires``, ``starve``,
        ``starve_factor``, ``pmu_wrap``, ``control_sensor``,
        ``control_freeze``, ``control_freeze_cycles``, ``crash``,
        ``timeout``, ``persistent``.  Example:
        ``seed=7,ioctl=0.05,starve=0.2``.
        """
        values = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise FaultError(
                    f"fault spec entry {part!r} is not key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in _SPEC_KEYS:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise FaultError(
                    f"unknown fault spec key {key!r} (known: {known})"
                )
            field_name, convert = _SPEC_KEYS[key]
            try:
                values[field_name] = convert(raw.strip())
            except ValueError as error:
                raise FaultError(
                    f"bad value for fault spec key {key!r}: {raw!r}"
                ) from error
        plan = cls(**values)
        plan.validate()
        return plan

    def describe(self) -> str:
        """Short human-readable summary of the enabled fault sites."""
        parts = [f"seed={self.seed}"]
        for key, (field_name, _) in _SPEC_KEYS.items():
            if key == "seed":
                continue
            value = getattr(self, field_name)
            default = getattr(type(self)(), field_name)
            if value != default:
                parts.append(f"{key}={value}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    # Trial-level schedule
    # ------------------------------------------------------------------
    def trial_fate(self, trial: int) -> TrialFate:
        """The (deterministic) trial-level fault drawn for ``trial``.

        A pure function of ``(seed, trial)``: recomputing it for a
        retry attempt, or in a different worker process, always yields
        the same answer.
        """
        if not self.trial_active:
            return BENIGN_FATE
        rng = RngStreams(self.seed).fork(trial).stream("trial-fate")
        draw = float(rng.uniform())
        if draw < self.trial_persistent_prob:
            return TrialFate(kind="persistent", failing_attempts=ALWAYS_FAILS)
        draw -= self.trial_persistent_prob
        if draw < self.trial_crash_prob:
            # One or two failing attempts — always within the runner's
            # retry budget, so transient crashes recover.
            failing = 1 + int(float(rng.uniform()) < 0.5)
            return TrialFate(kind="crash", failing_attempts=failing)
        draw -= self.trial_crash_prob
        if draw < self.trial_timeout_prob:
            return TrialFate(kind="timeout", failing_attempts=1)
        return BENIGN_FATE
