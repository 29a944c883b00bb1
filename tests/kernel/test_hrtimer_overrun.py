"""HRTimer overrun: handler slower than the period (hrtimer_forward
semantics — skip missed slots, never burst)."""

import pytest

from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.hrtimer import HrTimer
from repro.kernel.kernel import Kernel
from repro.obs import hooks
from repro.sim.clock import us
from repro.sim.rng import RngStreams


def quiet_kernel():
    config = KernelConfig(
        noise_enabled=False,
        hrtimer_jitter_mean_ns=0,
        hrtimer_jitter_sd_ns=0,
        irq_entry_ns=0,
        irq_exit_ns=0,
    )
    return Kernel(Machine(i7_920()), config=config, rng=RngStreams(0))


class TestOverrun:
    def test_slow_handler_skips_missed_slots(self):
        """A handler taking 2.5 periods must not produce a burst of
        make-up fires; missed grid slots are skipped forward."""
        kernel = quiet_kernel()
        fires = []

        def slow_handler(when):
            fires.append((when, kernel.now))
            kernel.charge_kernel_time(us(250))  # 2.5x the period

        timer = HrTimer(kernel, slow_handler, label="slow")
        timer.start(us(100))
        kernel.run(deadline=us(2000))
        # With skipping: one fire per ~300 us, so ~6-7 fires in 2 ms;
        # a bursting implementation would show ~20.
        assert 4 <= len(fires) <= 8

    def test_intervals_never_negative(self):
        kernel = quiet_kernel()
        fires = []

        def slow_handler(when):
            fires.append(when)
            kernel.charge_kernel_time(us(150))

        timer = HrTimer(kernel, slow_handler, label="slow2")
        timer.start(us(100))
        kernel.run(deadline=us(3000))
        intervals = [b - a for a, b in zip(fires, fires[1:])]
        assert all(interval > 0 for interval in intervals)

    def test_fast_handler_keeps_every_slot(self):
        kernel = quiet_kernel()
        fires = []

        def quick_handler(when):
            fires.append(when)
            kernel.charge_kernel_time(us(10))

        timer = HrTimer(kernel, quick_handler, label="quick")
        timer.start(us(100))
        kernel.run(deadline=us(1050))
        assert len(fires) == 10

    def test_recovery_after_transient_overrun(self):
        """One slow fire must not poison the subsequent schedule."""
        kernel = quiet_kernel()
        fires = []

        def sometimes_slow(when):
            fires.append(when)
            if len(fires) == 3:
                kernel.charge_kernel_time(us(350))

        timer = HrTimer(kernel, sometimes_slow, label="mixed")
        timer.start(us(100))
        kernel.run(deadline=us(2000))
        # After the hiccup, fires return to the 100 us grid.
        tail = fires[4:]
        intervals = [b - a for a, b in zip(tail, tail[1:])]
        assert all(interval == us(100) for interval in intervals)

    def test_overrun_counts_project_into_metrics(self):
        """The timer counts its overruns and skipped slots; a recorder
        installed at construction projects exactly those counts."""
        recorder = hooks.Recorder(trace=False)
        hooks.install(recorder)
        try:
            kernel = quiet_kernel()

            def slow_handler(when):
                kernel.charge_kernel_time(us(250))

            timer = HrTimer(kernel, slow_handler, label="slow")
        finally:
            hooks.reset()
        timer.start(us(100))
        kernel.run(deadline=us(2000))
        counts = timer.counts
        assert counts.overruns > 0
        assert counts.skipped_slots >= 2 * counts.overruns
        registry = recorder.registry
        assert registry.get(
            "hrtimer_overruns_total").default.value == counts.overruns
        assert registry.get(
            "hrtimer_skipped_slots_total").default.value == \
            counts.skipped_slots
