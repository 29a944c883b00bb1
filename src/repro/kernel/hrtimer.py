"""High-resolution kernel timer.

The core of K-LEB's timing advantage (§III): by moving timing into
kernel space and using an HRTimer, samples can be collected every
100 µs, 100× faster than user-space timer tools.  The model keeps an
*absolute* ideal expiry grid (like real hrtimers) so per-fire jitter
does not accumulate into drift, and adds a positive-latency jitter draw
per fire (§VI: clock jitter, context switches, and data processing
limit practical precision to roughly 100 µs periods).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import TimerError
from repro.obs import hooks as _obs_hooks
from repro.sim.engine import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel

TimerCallback = Callable[[int], None]


class TimerCounts:
    """An HRTimer's lifetime counts, held apart from the timer so a
    recorder can keep them without keeping its kernel alive."""

    __slots__ = ("missed", "overruns", "skipped_slots", "reprograms")

    def __init__(self) -> None:
        self.missed = 0         # expiries swallowed by masked IRQs
        self.overruns = 0       # re-arms that skipped grid slots
        self.skipped_slots = 0  # the slots those re-arms skipped
        self.reprograms = 0     # in-place period changes


class HrTimer:
    """Periodic kernel timer firing in interrupt context."""

    def __init__(self, kernel: "Kernel", callback: TimerCallback,
                 label: str = "hrtimer") -> None:
        self._kernel = kernel
        self._callback = callback
        self._label = label
        self._period_ns = 0
        self._next_ideal = 0
        self._pending: Optional[ScheduledEvent] = None
        self._rng: np.random.Generator = kernel.rng.stream(f"hrtimer:{label}")
        self.fires = 0
        self.counts = TimerCounts()
        # The fault plan is frozen, so whether it can ever touch a fire
        # is known now; an inert timer path makes no fault calls.
        plan = kernel.faults.plan
        self._faults = (kernel.faults
                        if plan.timer_extra_jitter_prob > 0
                        or plan.timer_miss_prob > 0 else None)
        self._obs = _obs_hooks.active()
        if self._obs is not None:
            self._obs.timers.append(self.counts)

    @property
    def active(self) -> bool:
        return self._pending is not None

    @property
    def period_ns(self) -> int:
        return self._period_ns

    def start(self, period_ns: int) -> None:
        """Arm the timer with the given period, first fire one period out."""
        if period_ns < self._kernel.config.hrtimer_min_period_ns:
            raise TimerError(
                f"hrtimer period {period_ns}ns below hardware floor "
                f"{self._kernel.config.hrtimer_min_period_ns}ns"
            )
        self.cancel()
        self._period_ns = int(period_ns)
        self._next_ideal = self._kernel.now + self._period_ns
        self._schedule()

    def cancel(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def reprogram(self, period_ns: int) -> None:
        """Change the period of a (possibly running) timer in place.

        Real hrtimers support this via cancel + restart with a new
        interval; the adaptive controller uses it to retune the
        sampling rate without tearing down the counting session.  The
        ideal grid restarts from *now* — the next fire lands one new
        period out, and subsequent fires stay on the new grid.
        """
        if period_ns < self._kernel.config.hrtimer_min_period_ns:
            raise TimerError(
                f"hrtimer period {period_ns}ns below hardware floor "
                f"{self._kernel.config.hrtimer_min_period_ns}ns"
            )
        was_active = self._pending is not None
        if was_active:
            self._pending.cancel()
            self._pending = None
        self._period_ns = int(period_ns)
        if was_active:
            self._next_ideal = self._kernel.now + self._period_ns
            self._schedule()
        self.counts.reprograms += 1
        obs = self._obs
        if obs is not None:
            obs.timer_reprogrammed(self._label, self._kernel.now,
                                   self._period_ns)

    def _jitter(self) -> int:
        config = self._kernel.config
        draw = self._rng.normal(config.hrtimer_jitter_mean_ns,
                                config.hrtimer_jitter_sd_ns)
        return max(0, int(draw))

    def _schedule(self) -> None:
        fire_at = self._next_ideal + self._jitter()
        if self._faults is not None:
            # Fault injection may stretch this fire's latency beyond the
            # model's own jitter (e.g. long IRQ-disabled sections).
            fire_at += self._faults.timer_extra_jitter_ns(self._kernel.now)
        self._pending = self._kernel.events.schedule(
            fire_at, self._fire, label=f"hrtimer:{self._label}"
        )

    def _fire(self, when: int) -> None:
        self._pending = None
        obs = self._obs
        if self._faults is not None and self._faults.timer_missed(when):
            # Injected missed deadline: the expiry came and went inside
            # a masked-interrupt window — the handler never runs and
            # this sample window is simply lost (a gap, not a burst).
            self.counts.missed += 1
            if obs is not None:
                obs.timer_missed(self._label, when)
        else:
            self.fires += 1
            if obs is not None:
                # Lateness vs the ideal grid: jitter draw plus any
                # injected IRQ-latency stretch.
                obs.timer_fired(self._label, when, when - self._next_ideal)
            # Interrupt context: the kernel charges IRQ entry/exit
            # around the handler, counted at kernel privilege.
            self._kernel.run_interrupt(self._callback, when)
        # Re-arm on the ideal grid so jitter does not accumulate.
        self._next_ideal += self._period_ns
        if self._next_ideal <= self._kernel.now:
            # The handler ran longer than the period — skip missed slots
            # rather than firing a burst (hrtimer forward semantics).
            missed = (self._kernel.now - self._next_ideal) // self._period_ns + 1
            self._next_ideal += missed * self._period_ns
            self.counts.overruns += 1
            self.counts.skipped_slots += missed
            if obs is not None:
                obs.timer_overrun(self._label, self._kernel.now, missed)
        self._schedule()
