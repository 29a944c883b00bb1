"""perf stat multiplexer internals."""

import pytest

from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.hw.schedule import plan_groups
from repro.kernel.kernel import Kernel
from repro.sim.clock import seconds
from repro.sim.rng import RngStreams
from repro.tools.base import CounterGate
from repro.tools.perf import _Multiplexer
from repro.workloads.synthetic import UniformComputeWorkload

SIX_EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL",
              "LLC_MISSES", "BRANCH_MISSES")


def build(events=SIX_EVENTS):
    kernel = Kernel(Machine(i7_920()), rng=RngStreams(0))
    victim = kernel.spawn(UniformComputeWorkload(1e8))
    plan = plan_groups(events)
    gate = CounterGate(kernel, victim, plan.groups[0].names)
    multiplexer = _Multiplexer(kernel, gate, victim, plan)
    return kernel, victim, gate, multiplexer


class TestGrouping:
    def test_six_events_make_two_groups(self):
        _, _, _, multiplexer = build()
        groups = multiplexer.plan.groups
        assert len(groups) == 2
        assert groups[0].names == SIX_EVENTS[:4]
        assert groups[1].names == SIX_EVENTS[4:]

    def test_first_group_programmed_initially(self):
        kernel, _, _, _ = build()
        assert kernel.pmu.counter_event(0) == "LOADS"
        assert kernel.pmu.counter_event(3) == "ARITH_MUL"


class TestRotation:
    def test_tick_rotates_groups(self):
        kernel, victim, gate, multiplexer = build()
        kernel.run(deadline=seconds(0.01))
        multiplexer.tick()
        assert multiplexer.active == 1
        assert kernel.pmu.counter_event(0) == "LLC_MISSES"
        # Unused slots of the smaller group are disabled.
        assert kernel.pmu.counter_event(2) is None

    def test_tick_zeroes_counters_for_next_window(self):
        kernel, victim, gate, multiplexer = build()
        kernel.run(deadline=seconds(0.01))
        multiplexer.tick()
        assert kernel.pmu.rdpmc(0) == 0

    def test_enabled_time_attributed_to_active_group(self):
        kernel, victim, gate, multiplexer = build()
        kernel.run(deadline=seconds(0.01))
        multiplexer.tick()
        assert multiplexer.running_cpu[0] > 0
        assert multiplexer.running_cpu[1] == 0


class TestFinalize:
    def test_scaled_estimates_near_truth_for_uniform_load(self):
        kernel, victim, gate, multiplexer = build()
        # Alternate groups over the whole run, like perf's tick does.
        while victim.alive:
            kernel.run(deadline=kernel.now + seconds(0.005))
            if victim.alive:
                multiplexer.tick()
        totals = multiplexer.finalize()
        # Uniform rates: time-scaled estimates are nearly exact.
        assert totals["LOADS"] == pytest.approx(0.30 * 1e8, rel=0.01)
        assert totals["LLC_MISSES"] == pytest.approx(0.0002 * 1e8, rel=0.05)

    def test_fixed_events_never_scaled(self):
        kernel, victim, gate, multiplexer = build()
        kernel.run(deadline=seconds(1))
        totals = multiplexer.finalize()
        assert totals["INST_RETIRED"] == pytest.approx(1e8, rel=0.01)
