"""CounterGate: per-task isolation via context-switch hooks."""

from dataclasses import replace

import pytest

from repro.errors import ToolError
from repro.experiments.runner import run_monitored
from repro.hw.machine import Machine
from repro.hw.pmu import RDPMC_FIXED_FLAG
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.kprobes import ProbePoint
from repro.kernel.process import TaskState
from repro.sim.clock import ms, seconds, us
from repro.sim.rng import RngStreams
from repro.tools.base import CounterGate
from repro.tools.registry import available_tools, create_tool
from repro.workloads.base import (ListProgram, Program, RateBlock,
                                  SyscallBlock, user_probe)
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
        gate = CounterGate(kernel, victim, ["LOADS"])
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
        gate = CounterGate(kernel, victim, ["LOADS"])
        gate.detach()
        for point in ProbePoint:
            assert kernel.kprobes.count(point) == 0


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

    # none and dbi never program the PMU.
    PMU_TOOLS = tuple(name for name in available_tools()
                      if name not in ("none", "dbi"))

    @pytest.mark.parametrize("name", PMU_TOOLS)
    def test_child_exit_stops_counting(self, name):
        """The kernel fires the exit probe before the exit's switch-out:
        a traced child's exit must stop counting, or the PMU (and any
        sampling timer) keeps running for whatever is scheduled next."""
        tool = create_tool(name)
        config = KernelConfig()
        if tool.kernel_version is not None:
            config = replace(config, kernel_version=tool.kernel_version)
        kernel = Kernel(Machine(i7_920()), config=config, rng=RngStreams(0),
                        patches=list(tool.required_patches))
        program = _ForkingVictim()
        victim = kernel.spawn(
            tool.prepare_program(program, ("LOADS",), us(100)), start=False)
        # Each tool samples at its floor: 100 us for K-LEB.
        session = tool.attach(kernel, victim, ("LOADS",), us(100))
        bystander = kernel.spawn(UniformComputeWorkload(3e7))
        bystander_runs = []

        def switch_in(task):
            if task is bystander:
                bystander_runs.append([kernel.now, None])

        def switch_out(task):
            if task is bystander:
                bystander_runs[-1][1] = kernel.now

        kernel.kprobes.register(ProbePoint.SCHED_SWITCH_IN, switch_in)
        kernel.kprobes.register(ProbePoint.SCHED_SWITCH_OUT, switch_out)
        kernel.run_until_exit(victim, deadline=seconds(10))
        report = session.finalize()
        kernel.run_until_exit(bystander, deadline=kernel.now + seconds(10))
        assert bystander_runs
        tree = int(victim.instructions_retired
                   + program.child.instructions_retired)
        counted = kernel.pmu.rdpmc(RDPMC_FIXED_FLAG)
        if tool.requires_source:
            # Counting spans the instrumented start..stop calls, which
            # leave the library initialization before start uncounted.
            assert counted == report.totals["INST_RETIRED"]
            assert counted <= tree
        else:
            assert counted == tree
        for when in report.samples.timestamps:
            assert not any(start < when < end
                           for start, end in bystander_runs)


class _ForkingVictim(Program):
    """Runs 1e5 instructions, forks a 2e6-instruction child, then waits
    for the child in 1 ms sleeps."""

    name = "forker"

    def __init__(self):
        self.child = None

    @property
    def metadata(self):
        return {"instructions": 1e5}

    def _fork(self, kernel, task):
        self.child = kernel.spawn(compute(2e6), ppid=task.pid)

    def blocks(self):
        yield RateBlock(instructions=1e5)
        yield SyscallBlock("fork", handler=self._fork)
        while self.child.state is not TaskState.EXITED:
            yield SyscallBlock("nanosleep",
                               handler=lambda kernel, task:
                               kernel.sleep_current(ms(1)))
