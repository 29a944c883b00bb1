"""One counter-placement path: every tool places events through
``repro.hw.schedule`` and loads them with ``Pmu.load_assignment``."""

import pytest

from repro.errors import ScheduleError
from repro.experiments.runner import run_monitored
from repro.hw import events as ev
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.hw.schedule import assign_counters, plan_groups
from repro.kernel.kernel import Kernel
from repro.sim.clock import ms, seconds
from repro.sim.rng import RngStreams
from repro.tools.base import CounterGate
from repro.tools.kleb import KLebTool
from repro.tools.limit import LimitTool
from repro.tools.papi import PapiTool
from repro.tools.perf import PerfRecordTool, PerfStatTool, _Multiplexer
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.synthetic import UniformComputeWorkload

# Three events whose masks allow only counters 0 and 1 between them.
PORTS = ("UOPS_EXEC_PORT0", "UOPS_EXEC_PORT1", "UOPS_EXEC_PORT2")
FOUR = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")
TWO = ("LOADS", "STORES")


def _kernel():
    return Kernel(Machine(i7_920()), rng=RngStreams(0))


def _session_report(kernel, tool, events):
    victim = kernel.spawn(UniformComputeWorkload(1e8), start=False)
    session = tool.attach(kernel, victim, events, ms(10))
    kernel.run_until_exit(victim, deadline=kernel.now + seconds(5))
    return session.finalize()


class TestLoadAssignment:
    def test_unassigned_slots_are_cleared(self):
        pmu = _kernel().pmu
        pmu.load_assignment(assign_counters(FOUR))
        pmu.load_assignment(assign_counters(("BRANCHES",)))
        assert [pmu.counter_event(index) for index in range(4)] == [
            "BRANCHES", None, None, None]

    def test_masks_respected(self):
        pmu = _kernel().pmu
        pmu.load_assignment(assign_counters(
            ("UOPS_EXEC_PORT3", "LOADS")))
        assert pmu.counter_event(0) == "LOADS"
        assert pmu.counter_event(2) == "UOPS_EXEC_PORT3"


class TestSecondSessionOnOneKernel:
    """A later session with fewer events reports only its own."""

    @pytest.mark.parametrize("tool", [KLebTool, PerfStatTool],
                             ids=["k-leb", "perf-stat"])
    def test_fewer_events_report_only_their_columns(self, tool):
        kernel = _kernel()
        first = _session_report(kernel, tool(), FOUR)
        second = _session_report(kernel, tool(), TWO)
        assert first.samples.names == ev.FIXED_EVENTS + FOUR
        assert second.samples.names == ev.FIXED_EVENTS + TWO
        assert set(second.totals) == set(ev.FIXED_EVENTS + TWO)
        assert second.totals["LOADS"] > 0


class TestConstrainedRequest:
    def _diagnostic(self, tool):
        with pytest.raises(ScheduleError) as caught:
            run_monitored(TripleLoopMatmul(64), tool, events=PORTS,
                          period_ns=ms(10), seed=0)
        return str(caught.value)

    def test_read_point_tools_reject_like_k_leb(self):
        expected = self._diagnostic(KLebTool())
        assert "unsatisfiable counter constraint" in expected
        assert self._diagnostic(PapiTool()) == expected
        assert self._diagnostic(LimitTool()) == expected

    def test_perf_record_rejects_like_k_leb(self):
        assert self._diagnostic(PerfRecordTool()) == self._diagnostic(
            KLebTool())

    def test_perf_stat_multiplexes_into_plan_groups(self):
        result = run_monitored(UniformComputeWorkload(2e7), PerfStatTool(),
                               events=PORTS, period_ns=ms(10), seed=0)
        report = result.report
        assert report.metadata["multiplexed"] == 1.0
        assert report.samples.names == ev.FIXED_EVENTS + PORTS
        assert set(report.totals) == set(ev.FIXED_EVENTS + PORTS)

    def test_multiplexer_rotates_the_plan_groups_legally(self):
        kernel = _kernel()
        victim = kernel.spawn(UniformComputeWorkload(1e8))
        plan = plan_groups(PORTS)
        gate = CounterGate(kernel, victim, plan.groups[0].names)
        multiplexer = _Multiplexer(kernel, gate, victim, plan)
        assert [group.names for group in plan.groups] == [PORTS[:2],
                                                          PORTS[2:]]
        kernel.run(deadline=seconds(0.01))
        multiplexer.tick()
        pmu = kernel.pmu
        assert [pmu.counter_event(index) for index in range(4)] == [
            "UOPS_EXEC_PORT2", None, None, None]


class TestFixedEventOnPerfStat:
    EVENTS = ("INST_RETIRED",) + FOUR

    def test_fits_without_multiplexing(self):
        kernel = _kernel()
        victim = kernel.spawn(UniformComputeWorkload(5e7), start=False)
        session = PerfStatTool().attach(kernel, victim, self.EVENTS, ms(10))
        pmu = kernel.pmu
        assert [pmu.counter_event(index) for index in range(4)] == list(FOUR)
        kernel.run_until_exit(victim, deadline=seconds(5))
        report = session.finalize()
        assert report.metadata["multiplexed"] == 0.0
        # INST_RETIRED is the fixed counter 0 column, not a fifth
        # programmable one.
        assert report.samples.names == ev.FIXED_EVENTS + FOUR
        assert report.totals["INST_RETIRED"] == pytest.approx(5e7, rel=0.01)
