"""FaultPlan: spec parsing, validation, deterministic trial fates."""

import pytest

from repro.errors import FaultError
from repro.faults import ALWAYS_FAILS, FaultPlan


class TestParse:
    def test_empty_spec_is_inert(self):
        plan = FaultPlan.parse("")
        assert not plan.active

    def test_keys_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7,ioctl=0.1,read=0.2,timer_miss=0.05,timer_jitter=0.3,"
            "timer_jitter_ns=80000,squeeze=0.01,squeeze_factor=0.5,"
            "squeeze_fires=50,starve=0.2,starve_factor=4,pmu_wrap=1000,"
            "crash=0.1,timeout=0.1,persistent=0.05"
        )
        assert plan.seed == 7
        assert plan.ioctl_failure_prob == 0.1
        assert plan.read_failure_prob == 0.2
        assert plan.timer_miss_prob == 0.05
        assert plan.timer_extra_jitter_prob == 0.3
        assert plan.timer_extra_jitter_ns == 80_000
        assert plan.squeeze_prob == 0.01
        assert plan.squeeze_factor == 0.5
        assert plan.squeeze_fires == 50
        assert plan.starve_prob == 0.2
        assert plan.starve_factor == 4.0
        assert plan.pmu_wrap_margin == 1000
        assert plan.trial_crash_prob == 0.1
        assert plan.trial_timeout_prob == 0.1
        assert plan.trial_persistent_prob == 0.05
        assert plan.active and plan.kernel_active and plan.trial_active

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" seed = 3 , ioctl = 0.5 ")
        assert plan.seed == 3 and plan.ioctl_failure_prob == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultError, match="unknown fault spec key"):
            FaultPlan.parse("bogus=1")

    def test_missing_equals_rejected(self):
        with pytest.raises(FaultError, match="not key=value"):
            FaultPlan.parse("seed")

    def test_bad_value_rejected(self):
        with pytest.raises(FaultError, match="bad value"):
            FaultPlan.parse("seed=abc")

    def test_describe_lists_non_defaults(self):
        plan = FaultPlan.parse("seed=9,starve=0.5")
        description = plan.describe()
        assert "seed=9" in description and "starve=0.5" in description
        assert "ioctl" not in description


class TestValidate:
    def test_probability_out_of_range(self):
        with pytest.raises(FaultError, match="ioctl_failure_prob"):
            FaultPlan(ioctl_failure_prob=1.5).validate()
        with pytest.raises(FaultError, match="timer_miss_prob"):
            FaultPlan(timer_miss_prob=-0.1).validate()

    def test_squeeze_factor_bounds(self):
        with pytest.raises(FaultError, match="squeeze_factor"):
            FaultPlan(squeeze_factor=0.0).validate()
        with pytest.raises(FaultError, match="squeeze_factor"):
            FaultPlan(squeeze_factor=1.5).validate()

    def test_starve_factor_floor(self):
        with pytest.raises(FaultError, match="starve_factor"):
            FaultPlan(starve_factor=0.5).validate()

    def test_pmu_wrap_margin_positive(self):
        with pytest.raises(FaultError, match="pmu_wrap_margin"):
            FaultPlan(pmu_wrap_margin=0).validate()

    def test_trial_probs_sum(self):
        with pytest.raises(FaultError, match="sum"):
            FaultPlan(trial_crash_prob=0.6,
                      trial_persistent_prob=0.6).validate()


class TestTrialFate:
    def test_inert_plan_is_benign(self):
        plan = FaultPlan(seed=1)
        assert plan.trial_fate(0).kind is None

    def test_deterministic_across_calls(self):
        plan = FaultPlan(seed=11, trial_crash_prob=0.4,
                         trial_timeout_prob=0.3)
        fates = [plan.trial_fate(t) for t in range(50)]
        again = [plan.trial_fate(t) for t in range(50)]
        assert fates == again

    def test_seed_changes_schedule(self):
        kwargs = dict(trial_crash_prob=0.5, trial_timeout_prob=0.3)
        a = [FaultPlan(seed=1, **kwargs).trial_fate(t) for t in range(40)]
        b = [FaultPlan(seed=2, **kwargs).trial_fate(t) for t in range(40)]
        assert a != b

    def test_certain_crash_is_always_transient(self):
        plan = FaultPlan(seed=3, trial_crash_prob=1.0)
        for trial in range(20):
            fate = plan.trial_fate(trial)
            assert fate.kind == "crash"
            assert 1 <= fate.failing_attempts <= 2  # within retry budget

    def test_certain_persistent_always_fails(self):
        plan = FaultPlan(seed=3, trial_persistent_prob=1.0)
        fate = plan.trial_fate(5)
        assert fate.kind == "persistent"
        assert fate.failing_attempts == ALWAYS_FAILS

    def test_certain_timeout_fails_once(self):
        plan = FaultPlan(seed=3, trial_timeout_prob=1.0)
        fate = plan.trial_fate(2)
        assert fate.kind == "timeout"
        assert fate.failing_attempts == 1
