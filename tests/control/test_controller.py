"""AdaptiveController: the control law, ladder, boost, hysteresis.

These drive the pure decision engine directly with synthetic sensor
readings — no kernel, no tasks — which is the point of keeping the
controller a pure function of its observation sequence.
"""

from typing import Optional

import pytest

from repro.control import AdaptiveController, ControlConfig, SensorReading
from repro.errors import ControlError
from repro.sim.clock import ms, us


def config(**overrides) -> ControlConfig:
    defaults = dict(
        overhead_budget_percent=2.0,
        min_period_ns=us(100),
        max_period_ns=ms(10),
    )
    defaults.update(overrides)
    return ControlConfig(**defaults)


class Feed:
    """Feeds synthetic drain-cycle observations to a controller."""

    def __init__(self, ctrl: AdaptiveController,
                 interval_ns: int = ms(10)) -> None:
        self.ctrl = ctrl
        self.interval = interval_ns
        self.now = 0
        self.monitor = 0
        self.dropped = 0
        self._flip = 1.0

    def step(self, count: int = 1, overhead: float = 0.0,
             signal: Optional[float] = None, paused: bool = False,
             drop: bool = False):
        """``overhead`` is the per-window monitor fraction in percent;
        ``signal=None`` wiggles around 100 so the variance tracker has
        a nonzero (small) spread to trigger against."""
        decisions = []
        for _ in range(count):
            self.now += self.interval
            self.monitor += int(self.interval * overhead / 100.0)
            if drop:
                self.dropped += 1
            if signal is None:
                value = 100.0 + self._flip
                self._flip = -self._flip
            else:
                value = signal
            decisions.append(self.ctrl.observe(SensorReading(
                now_ns=self.now, monitor_ns=self.monitor, signal=value,
                pressure=0.5, dropped=self.dropped, paused=paused,
            )))
        return decisions


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"overhead_budget_percent": 0.0},
        {"overhead_budget_percent": 101.0},
        {"min_period_ns": 0},
        {"min_period_ns": ms(20), "max_period_ns": ms(10)},
        {"overhead_alpha": 0.0},
        {"signal_alpha": 1.5},
        {"phase_z": 0.0},
        {"recover_fraction": 1.0},
        {"settle_observations": 0},
        {"step_factor": 1},
        {"drain_batch_shrunk": 0},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ControlError):
            config(**overrides).validate()

    def test_nominal_clamped_into_bounds(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=us(10))
        assert ctrl.nominal_period_ns == us(100)
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(100))
        assert ctrl.nominal_period_ns == ms(10)

    def test_min_period_floor_raises_min(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1),
                                  min_period_floor_ns=us(500))
        assert ctrl.min_period_ns == us(500)


class TestEscalation:
    def test_sustained_over_budget_walks_the_full_ladder(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=40, overhead=10.0)
        # Period doubled to the cap, then batches, then skip to its cap.
        assert ctrl.period_ns == ms(10)
        assert ctrl.drain_max_items == ctrl.config.drain_batch_shrunk
        assert ctrl.skip_factor == ctrl.config.skip_factor_max
        assert ctrl.level == 4  # sample-dropping
        # 4 period steps (1->2->4->8->10 ms), 1 batch, 3 skip steps.
        assert ctrl.ledger.count("degrade") == 8
        assert ctrl.depth == 8

    def test_fully_degraded_is_a_fixed_point(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=40, overhead=10.0)
        before = ctrl.ledger.count()
        feed.step(count=10, overhead=10.0)
        assert ctrl.ledger.count() == before

    def test_rotation_rung_only_when_multiplexed(self):
        plain = AdaptiveController(config(), nominal_period_ns=ms(1))
        muxed = AdaptiveController(config(), nominal_period_ns=ms(1),
                                   multiplexed=True)
        for ctrl in (plain, muxed):
            Feed(ctrl).step(count=40, overhead=10.0)
        assert plain.rotate_slowdown == 1
        assert muxed.rotate_slowdown == muxed.config.rotate_slowdown_factor
        assert muxed.depth == plain.depth + 1

    def test_buffer_pressure_escalates_within_budget(self):
        """The safety stop engaging is degradation regardless of the
        overhead fraction."""
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=3, overhead=0.1, paused=True)
        assert ctrl.ledger.count("degrade") >= 1
        assert ctrl.period_ns == ms(2)

    def test_fresh_drops_escalate(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=3, overhead=0.1, drop=True)
        assert ctrl.ledger.count("degrade") >= 1

    def test_escalation_needs_sustained_signal(self):
        """One bad window must not move the ladder."""
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=1, overhead=10.0)
        feed.step(count=1, overhead=0.0)
        assert ctrl.ledger.count("degrade") == 0


class TestRecovery:
    def test_lifo_recovery_back_to_nominal(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=40, overhead=10.0)
        assert ctrl.depth > 0
        feed.step(count=60, overhead=0.1)
        assert ctrl.depth == 0
        assert not ctrl.boosted
        assert ctrl.period_ns == ctrl.nominal_period_ns == ms(1)
        assert ctrl.skip_factor == 1
        assert ctrl.drain_max_items is None
        assert ctrl.ledger.count("recover") == ctrl.ledger.count("degrade")
        assert ctrl.ledger.conservation_ok(final_depth=0)

    def test_recovery_requires_margin_not_just_under_budget(self):
        """Overhead under budget but above recover_fraction x budget
        must hold the ladder where it is (the no-flap rule)."""
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=4, overhead=10.0)
        assert ctrl.depth >= 1
        # 1.5% sits under the 2.0% budget but above the 1.0% recovery
        # threshold: the smoothed overhead may take a few more windows
        # to decay (escalating on the way down), but once it settles
        # the ladder must hold — no recovery, ever, at this level.
        feed.step(count=20, overhead=1.5)
        settled_depth = ctrl.depth
        feed.step(count=20, overhead=1.5)
        assert ctrl.depth == settled_depth
        assert ctrl.ledger.count("recover") == 0


class TestBoost:
    def warmed(self, **overrides) -> Feed:
        ctrl = AdaptiveController(config(**overrides),
                                  nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=8, overhead=0.1)  # warm the variance tracker
        return feed

    def test_phase_shift_boosts_toward_min_period(self):
        feed = self.warmed()
        decisions = feed.step(count=1, overhead=0.1, signal=500.0)
        assert decisions[0].action == "boost"
        assert decisions[0].changed
        assert feed.ctrl.period_ns == ms(1) // 8
        assert feed.ctrl.boosted

    def test_boost_respects_min_period_floor(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1),
                                  min_period_floor_ns=us(500))
        feed = Feed(ctrl)
        feed.step(count=8, overhead=0.1)
        feed.step(count=1, overhead=0.1, signal=500.0)
        assert ctrl.period_ns == us(500)

    def test_quiet_signal_releases_boost_stepwise(self):
        feed = self.warmed()
        feed.step(count=1, overhead=0.1, signal=500.0)
        ctrl = feed.ctrl
        # Settle at the new level: the tracker keeps flagging while its
        # mean catches up, then goes quiet and the release unwinds one
        # doubling per settle window until nominal.
        feed.step(count=60, overhead=0.1, signal=500.0)
        assert not ctrl.boosted
        assert ctrl.period_ns == ctrl.nominal_period_ns
        assert ctrl.ledger.count("boost") == 1
        # 125 us -> 250 -> 500 -> 1000: three capped release steps.
        assert ctrl.ledger.count("boost-release") == 3
        assert ctrl.ledger.conservation_ok(final_depth=0)

    def test_over_budget_while_boosted_releases_instead_of_degrading(self):
        """The ladder must not open rungs while below nominal: cost
        pressure during a boost unwinds the boost first."""
        feed = self.warmed()
        feed.step(count=1, overhead=0.1, signal=500.0)
        feed.step(count=20, overhead=10.0, signal=500.0)
        ctrl = feed.ctrl
        assert ctrl.ledger.count("boost-release") >= 1
        # Any degrade records must come after the boost fully released.
        actions = [record.action for record in ctrl.ledger.records]
        if "degrade" in actions:
            last_release = max(index for index, action in enumerate(actions)
                               if action == "boost-release")
            first_degrade = actions.index("degrade")
            assert first_degrade > last_release

    def test_no_boost_when_unhealthy(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=8, overhead=1.8)  # under budget, above margin
        feed.step(count=1, overhead=1.8, signal=500.0)
        assert not ctrl.boosted
        assert ctrl.ledger.count("boost") == 0

    def test_no_boost_while_degraded(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=4, overhead=10.0)
        assert ctrl.depth >= 1
        feed.step(count=1, overhead=10.0, signal=500.0)
        assert ctrl.ledger.count("boost") == 0


class TestHysteresisAndBounds:
    def test_period_always_within_bounds_under_abuse(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        for burst in range(6):
            feed.step(count=5, overhead=50.0)
            feed.step(count=5, overhead=0.0, signal=100.0 + 400.0 * burst)
        assert ctrl.min_period_ns <= ctrl.period_ns <= ctrl.max_period_ns
        assert ctrl.min_period_ns <= ctrl.min_period_seen
        assert ctrl.max_period_seen <= ctrl.max_period_ns

    def test_no_opposing_steps_within_settle_window(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        directions = {"degrade": -1, "boost-release": -1,
                      "recover": +1, "boost": +1}
        steps = []  # (observation index, direction)
        for burst in range(8):
            for decision in feed.step(count=3, overhead=30.0):
                if decision.action:
                    steps.append((ctrl.observations,
                                  directions[decision.action]))
            for decision in feed.step(count=3, overhead=0.0):
                if decision.action:
                    steps.append((ctrl.observations,
                                  directions[decision.action]))
        settle = ctrl.config.settle_observations
        for (obs_a, dir_a), (obs_b, dir_b) in zip(steps, steps[1:]):
            if dir_a != dir_b:
                assert obs_b - obs_a >= settle

    def test_decisions_snapshot_actuation_state(self):
        ctrl = AdaptiveController(config(), nominal_period_ns=ms(1))
        feed = Feed(ctrl)
        feed.step(count=40, overhead=10.0)
        last = feed.step(count=1, overhead=10.0)[0]
        assert last.period_ns == ctrl.period_ns
        assert last.skip_factor == ctrl.skip_factor
        assert last.drain_max_items == ctrl.drain_max_items
        assert last.level == ctrl.level
