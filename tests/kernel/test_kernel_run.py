"""Kernel run loop: execution, preemption, sleep, fork, exit, syscalls."""

import pytest

from repro.errors import KernelError, ProcessError
from repro.kernel.kprobes import ProbePoint
from repro.kernel.process import TaskState
from repro.sim.clock import ms, seconds, us
from repro.workloads.base import (
    ListProgram,
    Program,
    RateBlock,
    SyscallBlock,
    user_probe,
)
from repro.workloads.synthetic import UniformComputeWorkload

GHZ_267 = 2.67e9


def compute_program(instructions=1e6):
    return ListProgram("compute", [RateBlock(instructions=instructions)])


class TestBasicExecution:
    def test_single_task_runs_to_exit(self, kernel):
        task = kernel.spawn(compute_program(1e6))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.state is TaskState.EXITED
        assert task.exit_time is not None
        # 1e6 instructions at CPI 1 on 2.67 GHz ≈ 374.5 us.
        assert task.wall_time_ns == pytest.approx(1e6 / GHZ_267 * 1e9, rel=0.01)

    def test_cpu_time_matches_wall_when_alone(self, kernel):
        task = kernel.spawn(compute_program(1e6))
        kernel.run_until_exit(task, deadline=seconds(1))
        # Alone on a quiet CPU: wall exceeds cpu only by the exit-path
        # context switch.
        assert task.wall_time_ns - task.cpu_time_ns == pytest.approx(
            kernel.config.context_switch_ns, abs=100
        )

    def test_instructions_accounted(self, kernel):
        task = kernel.spawn(compute_program(12345))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.instructions_retired == pytest.approx(12345)

    def test_run_until_exit_deadline_raises(self, kernel):
        task = kernel.spawn(compute_program(1e12))  # ~374 s of work
        with pytest.raises(KernelError):
            kernel.run_until_exit(task, deadline=ms(1))

    def test_unknown_pid_raises(self, kernel):
        with pytest.raises(ProcessError):
            kernel.task(9999)

    def test_deadline_stops_run(self, kernel):
        kernel.spawn(compute_program(1e12))
        kernel.run(deadline=ms(2))
        assert kernel.now == ms(2)


class TestTimeSharing:
    def test_two_tasks_share_the_core(self, kernel):
        # Each task needs ~3.7 ms of CPU; they interleave on 4 ms quanta.
        a = kernel.spawn(compute_program(1e7))
        b = kernel.spawn(compute_program(1e7))
        kernel.run(deadline=seconds(1))
        assert a.state is TaskState.EXITED
        assert b.state is TaskState.EXITED
        # B's wall time covers A's CPU time too (single core).
        assert b.wall_time_ns > b.cpu_time_ns * 1.5

    def test_round_robin_fairness(self, kernel):
        tasks = [kernel.spawn(compute_program(5e7)) for _ in range(3)]
        kernel.run(deadline=ms(30))
        cpu_times = [task.cpu_time_ns for task in tasks]
        # After 30 ms, every task got within one quantum of the others.
        assert max(cpu_times) - min(cpu_times) <= kernel.config.quantum_ns * 1.1

    def test_context_switch_cost_charged(self, kernel):
        a = kernel.spawn(compute_program(1e7))
        b = kernel.spawn(compute_program(1e7))
        kernel.run(deadline=seconds(1))
        total_cpu = a.cpu_time_ns + b.cpu_time_ns
        # Wall exceeds summed CPU by the switch costs.
        assert b.exit_time > total_cpu
        assert kernel.scheduler.context_switches >= 2


class TestSleepWake:
    def test_sleep_rounds_up_to_jiffy(self, kernel):
        """The user-space timer floor: a 1 ms sleep takes >= 10 ms."""
        program = ListProgram("sleeper", [
            SyscallBlock("nanosleep",
                         handler=lambda k, t: k.sleep_current(ms(1))),
            RateBlock(instructions=1000),
        ])
        task = kernel.spawn(program)
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.wall_time_ns >= ms(10)

    def test_high_resolution_sleep_bypasses_jiffy(self, kernel):
        program = ListProgram("hr-sleeper", [
            SyscallBlock("nanosleep",
                         handler=lambda k, t: k.sleep_current(
                             us(200), high_resolution=True)),
            RateBlock(instructions=1000),
        ])
        task = kernel.spawn(program)
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.wall_time_ns < ms(1)

    def test_sleeping_task_yields_cpu(self, kernel):
        sleeper = kernel.spawn(ListProgram("sleeper", [
            SyscallBlock("nanosleep",
                         handler=lambda k, t: k.sleep_current(ms(10))),
        ]))
        worker = kernel.spawn(compute_program(1e6))
        kernel.run(deadline=seconds(1))
        # The worker must have finished long before the sleeper woke.
        assert worker.exit_time < sleeper.exit_time


class TestStoppedSpawn:
    def test_stopped_task_does_not_run(self, kernel):
        task = kernel.spawn(compute_program(1000), start=False)
        kernel.run(deadline=ms(5))
        assert task.state is TaskState.SLEEPING
        assert task.cpu_time_ns == 0

    def test_start_task_resumes_and_restamps_start_time(self, kernel):
        task = kernel.spawn(compute_program(1000), start=False)
        kernel.run(deadline=ms(5))
        kernel.start_task(task)
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.start_time >= ms(5)
        assert task.wall_time_ns < ms(1)


class TestForkAndExit:
    def test_fork_records_lineage_and_fires_probe(self, kernel):
        forked = []
        kernel.kprobes.register(
            ProbePoint.PROCESS_FORK,
            lambda parent, child: forked.append((parent.pid, child.pid)),
        )
        child_holder = {}

        def do_fork(k, task):
            child_holder["task"] = k.spawn(compute_program(1000),
                                           ppid=task.pid)

        parent = kernel.spawn(ListProgram("parent", [
            SyscallBlock("fork", handler=do_fork),
            RateBlock(instructions=1000),
        ]))
        kernel.run(deadline=seconds(1))
        child = child_holder["task"]
        assert child.ppid == parent.pid
        assert child.pid in parent.children
        assert forked == [(parent.pid, child.pid)]

    def test_exit_probe_fires(self, kernel):
        exited = []
        kernel.kprobes.register(ProbePoint.PROCESS_EXIT,
                                lambda task: exited.append(task.pid))
        task = kernel.spawn(compute_program(1000))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert exited == [task.pid]

    def test_on_exit_callbacks_run(self, kernel):
        task = kernel.spawn(compute_program(1000))
        seen = []
        task.on_exit.append(lambda t: seen.append(t.pid))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert seen == [task.pid]


class TestSyscalls:
    def test_handler_result_stored(self, kernel):
        task = kernel.spawn(ListProgram("sys", [
            SyscallBlock("getpid", handler=lambda k, t: t.pid),
        ]))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert task.last_syscall_result == task.pid

    def test_syscall_cost_extends_runtime(self, kernel):
        plain = kernel.spawn(compute_program(1000))
        kernel.run_until_exit(plain, deadline=seconds(1))

        kernel2_task_blocks = [RateBlock(instructions=1000)] + [
            SyscallBlock("write") for _ in range(100)
        ]
        task = kernel.spawn(ListProgram("sys-heavy", kernel2_task_blocks))
        kernel.run_until_exit(task, deadline=seconds(1))
        costs = kernel.config.syscalls
        expected_syscall_ns = 100 * (costs.entry_ns + costs.per_call_ns["write"]
                                     + costs.exit_ns)
        assert task.wall_time_ns >= plain.wall_time_ns + expected_syscall_ns * 0.9

    def test_syscall_counts_tracked(self, kernel):
        task = kernel.spawn(ListProgram("sys", [
            SyscallBlock("write"), SyscallBlock("write"),
            SyscallBlock("read"),
        ]))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert kernel.syscall_counts["write"] == 2
        assert kernel.syscall_counts["read"] == 1

    def test_user_probe_has_no_kernel_cost(self, kernel):
        seen = []
        task = kernel.spawn(ListProgram("probe", [
            RateBlock(instructions=1000),
            user_probe(lambda k, t: seen.append(k.now)),
            RateBlock(instructions=1000),
        ]))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert len(seen) == 1
        # No trap: not in the syscall accounting.
        assert sum(kernel.syscall_counts.values()) == 0

    def test_kernel_work_counted_at_kernel_privilege(self, kernel):
        pmu = kernel.pmu
        pmu.program_counter(0, "LOADS", user=False, kernel=True)
        pmu.global_enable()
        task = kernel.spawn(ListProgram("sys", [SyscallBlock("write")]))
        kernel.run_until_exit(task, deadline=seconds(1))
        assert pmu.rdpmc(0) > 0


class TestNoise:
    def test_noise_extends_runtime(self, machine, quiet_config):
        from dataclasses import replace
        from repro.hw.machine import Machine
        from repro.hw.presets import i7_920
        from repro.kernel.kernel import Kernel
        from repro.sim.rng import RngStreams

        quiet = Kernel(Machine(i7_920()), config=quiet_config,
                       rng=RngStreams(0))
        quiet_task = quiet.spawn(UniformComputeWorkload(5e8))
        quiet.run_until_exit(quiet_task, deadline=seconds(5))

        noisy_config = replace(quiet_config, noise_enabled=True)
        noisy = Kernel(Machine(i7_920()), config=noisy_config,
                       rng=RngStreams(0))
        noisy_task = noisy.spawn(UniformComputeWorkload(5e8))
        noisy.run_until_exit(noisy_task, deadline=seconds(5))

        assert noisy_task.wall_time_ns > quiet_task.wall_time_ns

    def test_noise_varies_with_seed(self):
        from repro.hw.machine import Machine
        from repro.hw.presets import i7_920
        from repro.kernel.kernel import Kernel
        from repro.sim.rng import RngStreams

        walls = []
        for seed in range(3):
            kernel = Kernel(Machine(i7_920()), rng=RngStreams(seed))
            task = kernel.spawn(UniformComputeWorkload(5e8))
            kernel.run_until_exit(task, deadline=seconds(5))
            walls.append(task.wall_time_ns)
        assert len(set(walls)) > 1
