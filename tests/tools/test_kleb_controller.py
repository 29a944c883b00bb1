"""K-LEB controller program internals."""

import pytest

from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.kernel.kernel import Kernel
from repro.kernel.process import TaskState
from repro.sim.clock import ms, seconds, us
from repro.sim.rng import RngStreams
from repro.tools.kleb.controller import ControllerState, KLebControllerProgram
from repro.tools.kleb.module import KLebModule, KLebModuleConfig
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES")


def collected(state):
    """Everything the controller drained, as sample-shaped rows."""
    return [row for batch in state.sample_batches for row in batch]


def build_system(victim_instructions=2e7, period=us(100)):
    kernel = Kernel(Machine(i7_920()), rng=RngStreams(0))
    module = kernel.load_module(KLebModule())
    victim = kernel.spawn(UniformComputeWorkload(victim_instructions),
                          start=False)
    state = ControllerState()
    config = KLebModuleConfig(events=list(EVENTS), period_ns=period)
    program = KLebControllerProgram(
        module=module, target_pid=victim.pid, module_config=config,
        state=state, start_target=True,
    )
    controller = kernel.spawn(program)
    return kernel, module, victim, controller, state, program


class TestControllerLifecycle:
    def test_controller_configures_and_starts_module(self):
        kernel, module, victim, controller, state, _ = build_system()
        kernel.run(deadline=ms(1))
        assert module.config is not None
        assert module.collecting
        assert state.started
        assert victim.state is not TaskState.SLEEPING

    def test_controller_drains_while_victim_runs(self):
        kernel, module, victim, controller, state, _ = build_system(
            victim_instructions=2e8  # ~75 ms: several drain intervals
        )
        kernel.run_until_exit(victim, deadline=seconds(5))
        assert len(collected(state)) > 0

    def test_drain_interval_has_jiffy_floor(self):
        _, _, _, _, _, program = build_system(period=us(100))
        assert program.drain_interval_ns >= ms(10)

    def test_drain_interval_scales_with_period(self):
        _, _, _, _, _, program = build_system(period=ms(10))
        assert program.drain_interval_ns == 8 * ms(10)

    def test_stop_request_lets_controller_exit(self):
        kernel, module, victim, controller, state, _ = build_system()
        kernel.run_until_exit(victim, deadline=seconds(5))
        state.stop_requested = True
        kernel.run_until_exit(controller, deadline=kernel.now + seconds(5))
        assert controller.state is TaskState.EXITED
        assert state.totals is not None
        assert module.pending_samples == 0

    def test_samples_delivered_in_order_across_drains(self):
        kernel, module, victim, controller, state, _ = build_system(
            victim_instructions=2e8
        )
        kernel.run_until_exit(victim, deadline=seconds(5))
        state.stop_requested = True
        kernel.run_until_exit(controller, deadline=kernel.now + seconds(5))
        timestamps = [sample.timestamp for sample in collected(state)]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)

    def test_log_accounting_matches_samples(self):
        kernel, module, victim, controller, state, _ = build_system()
        kernel.run_until_exit(victim, deadline=seconds(5))
        state.stop_requested = True
        kernel.run_until_exit(controller, deadline=kernel.now + seconds(5))
        assert state.log_bytes == 64 * len(collected(state))
