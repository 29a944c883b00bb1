"""Kernel-layer fault injection: hooks, recovery, and determinism."""

import numpy as np

from repro.analysis.timeseries import deltas, samples_to_series
from repro.experiments.runner import run_monitored
from repro.faults import FaultInjector, FaultPlan
from repro.tools.kleb.tool import KLebTool
from repro.workloads.matmul import TripleLoopMatmul


def run_kleb(plan=None, *, n=256, period_ns=1_000_000, seed=7, **tool_kwargs):
    injector = FaultInjector(plan) if plan is not None else None
    return run_monitored(
        TripleLoopMatmul(n), KLebTool(**tool_kwargs),
        period_ns=period_ns, seed=seed, faults=injector,
    ), injector


class TestInertInjector:
    def test_no_faults_is_bit_identical(self):
        """An injector with an inert plan must not perturb one draw."""
        baseline, _ = run_kleb(None)
        injected, injector = run_kleb(FaultPlan(seed=99))
        assert injected.report == baseline.report
        assert injected.wall_ns == baseline.wall_ns
        assert len(injector.ledger) == 0


class TestDeterminism:
    def test_same_plan_same_schedule(self):
        plan = FaultPlan(seed=13, ioctl_failure_prob=0.2,
                         read_failure_prob=0.2, timer_miss_prob=0.05,
                         timer_extra_jitter_prob=0.1)
        first, inj1 = run_kleb(plan)
        second, inj2 = run_kleb(plan)
        assert inj1.ledger.records == inj2.ledger.records
        assert first.report == second.report
        assert first.wall_ns == second.wall_ns

    def test_different_fault_seed_different_schedule(self):
        kwargs = dict(ioctl_failure_prob=0.3, read_failure_prob=0.3,
                      timer_miss_prob=0.1)
        _, inj1 = run_kleb(FaultPlan(seed=1, **kwargs))
        _, inj2 = run_kleb(FaultPlan(seed=2, **kwargs))
        assert inj1.ledger.records != inj2.ledger.records


class TestTimerFaults:
    def test_missed_deadlines_counted_and_logged(self):
        result, injector = run_kleb(FaultPlan(seed=4, timer_miss_prob=0.3))
        module = result.kernel.get_module("k_leb")
        assert module.timer_misses_total > 0
        assert injector.ledger.count("hrtimer", "missed-deadline") \
            == module.timer_misses_total
        assert result.report.metadata["timer_misses"] == module.timer_misses_total
        # Misses lose samples but never corrupt the ones recorded.
        assert module.stats.timer_fires == module.buffer.total_pushed \
            + module.buffer.dropped

    def test_extra_jitter_recorded(self):
        result, injector = run_kleb(
            FaultPlan(seed=4, timer_extra_jitter_prob=1.0,
                      timer_extra_jitter_ns=100_000)
        )
        assert injector.ledger.count("hrtimer", "extra-jitter") > 0
        assert result.report.sample_count > 0


class CountingInjector(FaultInjector):
    """Counts the HRTimer and ring-squeeze hook calls a run makes."""

    def __init__(self, plan):
        super().__init__(plan)
        self.timer_calls = 0
        self.squeeze_calls = 0

    def squeeze_capacity(self, nominal_capacity, now):
        self.squeeze_calls += 1
        return super().squeeze_capacity(nominal_capacity, now)

    def timer_extra_jitter_ns(self, now):
        self.timer_calls += 1
        return super().timer_extra_jitter_ns(now)

    def timer_missed(self, now):
        self.timer_calls += 1
        return super().timer_missed(now)


class TestInertTimerPath:
    def run_counting(self, plan):
        injector = CountingInjector(plan)
        result = run_monitored(TripleLoopMatmul(256), KLebTool(),
                               period_ns=1_000_000, seed=7, faults=injector)
        return result, injector

    def test_no_timer_fault_calls_without_timer_faults(self):
        """Other sites armed, timer sites inert: fires skip the hooks."""
        result, injector = self.run_counting(
            FaultPlan(seed=8, read_failure_prob=0.5))
        assert result.kernel.get_module("k_leb").stats.timer_fires > 0
        assert injector.timer_calls == 0

    def test_one_armed_timer_fault_consults_both_hooks(self):
        """Jitter alone armed: both hooks are called on every fire, and
        the jitter lands (a miss-only plan is held by TestTimerFaults)."""
        result, injector = self.run_counting(
            FaultPlan(seed=4, timer_extra_jitter_prob=0.5))
        assert injector.ledger.count("hrtimer", "extra-jitter") > 0
        assert injector.timer_calls >= 2 * result.kernel.get_module(
            "k_leb").stats.timer_fires


class TestInertSqueezePath:
    def run_counting(self, plan):
        injector = CountingInjector(plan)
        result = run_monitored(TripleLoopMatmul(256), KLebTool(),
                               period_ns=1_000_000, seed=7, faults=injector)
        return result, injector

    def test_no_squeeze_calls_without_a_squeeze(self):
        """Other sites armed, squeeze inert: fires skip the hook."""
        result, injector = self.run_counting(
            FaultPlan(seed=8, read_failure_prob=0.5,
                      timer_extra_jitter_prob=0.5))
        assert result.kernel.get_module("k_leb").stats.timer_fires > 0
        assert injector.timer_calls > 0
        assert injector.squeeze_calls == 0

    def test_armed_squeeze_is_consulted_on_every_fire(self):
        result, injector = self.run_counting(
            FaultPlan(seed=2, squeeze_prob=0.2, squeeze_fires=3))
        module = result.kernel.get_module("k_leb")
        assert injector.ledger.count("ringbuffer", "squeeze") > 0
        assert injector.squeeze_calls == module.stats.timer_fires > 0


class TestDeviceFaults:
    def test_transient_ioctl_failures_are_retried(self):
        result, injector = run_kleb(
            FaultPlan(seed=21, ioctl_failure_prob=0.5)
        )
        metadata = result.report.metadata
        assert injector.ledger.count("ioctl") > 0
        assert metadata["ioctl_retries"] >= injector.ledger.count("ioctl")
        # The run still completes and delivers totals.
        assert result.report.totals["INST_RETIRED"] > 0

    def test_transient_read_failures_are_retried(self):
        result, injector = run_kleb(
            FaultPlan(seed=8, read_failure_prob=0.5)
        )
        metadata = result.report.metadata
        assert injector.ledger.count("read") > 0
        assert metadata["read_retries"] >= injector.ledger.count("read")
        # Every recorded sample was still delivered to user space.
        module = result.kernel.get_module("k_leb")
        assert result.report.sample_count == module.buffer.total_pushed


class TestPmuWrap:
    def test_preloaded_counters_wrap_and_deltas_recover(self):
        # ~1M LOADS accumulate per 1 ms period over a ~30-sample run, so
        # a 5M margin puts the wrap a handful of samples in — visible in
        # the recorded stream rather than before the first snapshot.
        plan = FaultPlan(seed=6, pmu_wrap_margin=5_000_000)
        result, injector = run_kleb(plan)
        assert injector.ledger.count("pmu", "wrap-preload") > 0
        series = samples_to_series(result.report.samples)
        # The preload puts programmable counters near 2^48, so the raw
        # cumulative series wraps (goes backwards) mid-run...
        raw = series.event("LOADS")
        assert np.any(np.diff(raw) < 0)
        # ...and wrap-corrected deltas stay physical.
        corrected = deltas(series)
        assert np.all(corrected.event("LOADS") >= 0)

    def test_wrapped_run_counts_match_clean_run(self):
        clean, _ = run_kleb(None)
        wrapped, _ = run_kleb(FaultPlan(seed=6, pmu_wrap_margin=5_000_000))
        clean_deltas = deltas(samples_to_series(clean.report.samples))
        wrapped_deltas = deltas(samples_to_series(wrapped.report.samples))
        # Wraparound shifts absolute counter values, not activity.  The
        # counters keep fractional float accumulators and reads floor
        # them, so near 2^48 (ulp = 1/16) individual samples can land
        # one count to either side — but never more, and the total is
        # conserved.
        diff = clean_deltas.event("LOADS") - wrapped_deltas.event("LOADS")
        assert np.max(np.abs(diff)) <= 1.0
        assert abs(np.sum(diff)) <= 1.0


class TestSqueeze:
    def test_squeeze_causes_pauses_and_accounting_balances(self):
        plan = FaultPlan(seed=2, squeeze_prob=0.05, squeeze_factor=0.1,
                         squeeze_fires=40)
        result, injector = run_kleb(plan, n=384, buffer_capacity=64)
        assert injector.ledger.count("ringbuffer", "squeeze") > 0
        module = result.kernel.get_module("k_leb")
        buffer = module.buffer
        assert buffer.pause_episodes >= 1
        assert module.stats.timer_fires == buffer.total_pushed \
            + buffer.dropped
        assert buffer.total_pushed == buffer.total_drained \
            + buffer.total_cleared + len(buffer)
        # Collection resumed: the drain loop emptied the buffer.
        assert not buffer.paused and len(buffer) == 0
