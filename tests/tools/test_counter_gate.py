"""CounterGate: per-task isolation via context-switch hooks."""

import pytest

from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.hw.pmu import RDPMC_FIXED_FLAG
from repro.sim.clock import ms, seconds
from repro.tools.base import CounterGate
from repro.tools.registry import available_tools, create_tool
from repro.workloads.base import ListProgram, RateBlock, user_probe
from repro.workloads.synthetic import UniformComputeWorkload


def compute(instructions=1e6, loads=0.5):
    return ListProgram("w", [
        RateBlock(instructions=instructions, rates={"LOADS": loads})
    ])


class TestIsolation:
    def test_counts_only_the_traced_task(self, kernel):
        victim = kernel.spawn(compute(1e6, loads=0.5))
        other = kernel.spawn(compute(2e6, loads=1.0))
        gate = CounterGate(kernel, victim, ["LOADS"])
        kernel.run(deadline=seconds(1))
        totals = gate.totals()
        assert totals["LOADS"] == pytest.approx(5e5, rel=0.01)
        assert totals["INST_RETIRED"] == pytest.approx(1e6, rel=0.01)

    def test_final_snapshot_taken_at_root_exit(self, kernel):
        victim = kernel.spawn(compute(1e5))
        gate = CounterGate(kernel, victim, ["LOADS"])
        kernel.run(deadline=seconds(1))
        assert gate.final_snapshot is not None
        # Totals stay frozen even if asked later.
        assert gate.totals() == gate.final_snapshot

    def test_forked_children_are_traced(self, kernel):
        from repro.workloads.base import SyscallBlock

        def do_fork(k, task):
            k.spawn(compute(2e6), ppid=task.pid)

        # The parent spins past a quantum after forking, so the child
        # gets CPU time before the parent (the gate root) exits.
        parent_program = ListProgram("parent", [
            RateBlock(instructions=1e5),
            SyscallBlock("fork", handler=do_fork),
            RateBlock(instructions=2e7),
        ])
        parent = kernel.spawn(parent_program)
        gate = CounterGate(kernel, parent, ["LOADS"])
        kernel.run(deadline=seconds(1))
        # INST_RETIRED covers the parent (~2.01e7) plus the forked
        # child's 2e6 — proof the fork was traced.
        assert gate.final_snapshot["INST_RETIRED"] > 2.05e7

    def test_kernel_work_excluded_for_user_only_gate(self, kernel):
        from repro.workloads.base import SyscallBlock

        program = ListProgram("sys", [
            RateBlock(instructions=1e5, rates={"LOADS": 0.5}),
            SyscallBlock("write"),
            RateBlock(instructions=1e5, rates={"LOADS": 0.5}),
        ])
        victim = kernel.spawn(program)
        gate = CounterGate(kernel, victim, ["LOADS"], count_kernel=False)
        kernel.run(deadline=seconds(1))
        # Exactly the user-mode loads; the write syscall's kernel loads
        # must not leak in.
        assert gate.totals()["LOADS"] == pytest.approx(1e5, rel=1e-6)


class TestArming:
    def test_disarmed_gate_counts_nothing(self, kernel):
        victim = kernel.spawn(compute(1e5))
        gate = CounterGate(kernel, victim, ["LOADS"], armed=False)
        kernel.run(deadline=seconds(1))
        assert gate.totals().get("INST_RETIRED", 0) == 0

    def test_arm_mid_program_counts_the_tail(self, kernel):
        armed_totals = {}

        def arm(k, task):
            gate_holder["gate"].arm()

        def stop(k, task):
            gate = gate_holder["gate"]
            gate.disarm()
            armed_totals.update(gate.final_snapshot)

        program = ListProgram("p", [
            RateBlock(instructions=1e5),     # not counted
            user_probe(arm),
            RateBlock(instructions=5e4),     # counted
            user_probe(stop),
            RateBlock(instructions=1e5),     # not counted
        ])
        victim = kernel.spawn(program)
        gate_holder = {"gate": CounterGate(kernel, victim, ["LOADS"],
                                           armed=False)}
        kernel.run(deadline=seconds(1))
        assert armed_totals["INST_RETIRED"] == pytest.approx(5e4, rel=0.01)

    def test_detach_unregisters_probes(self, kernel):
        victim = kernel.spawn(compute(1e5))
        before = kernel.kprobes.count.__self__  # just exercise the API
        gate = CounterGate(kernel, victim, ["LOADS"])
        gate.detach()
        from repro.kernel.kprobes import ProbePoint
        assert kernel.kprobes.count(ProbePoint.SCHED_SWITCH_IN) == 0


class TestValidation:
    def test_too_many_events_rejected(self, kernel):
        victim = kernel.spawn(compute(1e4))
        with pytest.raises(ToolError):
            CounterGate(kernel, victim,
                        ["LOADS", "STORES", "BRANCHES", "ARITH_MUL",
                         "LLC_MISSES"])


class TestSessionEnd:
    """Counting stops with the monitored process: after any registered
    tool's session, fixed counter 0 holds the victim's instructions and
    nothing that runs later adds to it."""

    # Tools whose report total is the counter value itself; perf
    # record's totals are sample estimates, and none/dbi never program
    # the PMU.
    EXACT = ("k-leb", "perf-stat", "papi", "limit")

    @pytest.mark.parametrize("name", available_tools())
    def test_fixed_counter_stops_at_root_exit(self, name):
        result = run_monitored(UniformComputeWorkload(5e7),
                               create_tool(name), events=("LOADS",),
                               period_ns=ms(10), seed=0)
        kernel = result.kernel
        counted = kernel.pmu.rdpmc(RDPMC_FIXED_FLAG)
        if name in self.EXACT:
            assert counted == result.report.totals["INST_RETIRED"]
        elif name == "perf-record":
            assert counted == int(result.victim.instructions_retired)
        else:
            assert counted == 0
        other = kernel.spawn(UniformComputeWorkload(1e6))
        kernel.run_until_exit(other, deadline=kernel.now + seconds(1))
        assert kernel.pmu.rdpmc(RDPMC_FIXED_FLAG) == counted
