"""K-LEB kernel module: ioctl protocol, isolation, sampling, safety."""

import pytest

from repro.errors import ModuleError, ToolError
from repro.sim.clock import ms, seconds, us
from repro.tools.kleb.module import KLebModule, KLebModuleConfig
from repro.workloads.base import ListProgram, RateBlock, SyscallBlock
from repro.workloads.synthetic import UniformComputeWorkload

EVENTS = ("LOADS", "STORES")


def loaded_module(kernel):
    return kernel.load_module(KLebModule())


def config(period=us(100), capacity=4096):
    return KLebModuleConfig(events=list(EVENTS), period_ns=period,
                            buffer_capacity=capacity)


class TestIoctlProtocol:
    def test_start_before_config_rejected(self, kernel):
        module = loaded_module(kernel)
        with pytest.raises(ModuleError):
            module.ioctl("start", 1000)

    def test_unknown_command_rejected(self, kernel):
        module = loaded_module(kernel)
        with pytest.raises(ModuleError):
            module.ioctl("reboot")

    def test_config_validates(self, kernel):
        module = loaded_module(kernel)
        with pytest.raises(ToolError):
            module.ioctl("config", KLebModuleConfig(events=[]))

    def test_config_rejects_too_many_events(self, kernel):
        module = loaded_module(kernel)
        bad = KLebModuleConfig(
            events=["LOADS", "STORES", "BRANCHES", "ARITH_MUL", "FP_OPS"]
        )
        with pytest.raises(ToolError):
            module.ioctl("config", bad)

    def test_start_validates_pid(self, kernel):
        module = loaded_module(kernel)
        module.ioctl("config", config())
        with pytest.raises(Exception):
            module.ioctl("start", 424242)

    def test_stop_without_start_rejected(self, kernel):
        module = loaded_module(kernel)
        module.ioctl("config", config())
        with pytest.raises(ModuleError):
            module.ioctl("stop")

    def test_double_start_rejected(self, kernel):
        module = loaded_module(kernel)
        task = kernel.spawn(UniformComputeWorkload(1e6))
        module.ioctl("config", config())
        module.ioctl("start", task.pid)
        with pytest.raises(ModuleError):
            module.ioctl("start", task.pid)

    def test_stats_ioctl(self, kernel):
        module = loaded_module(kernel)
        stats = module.ioctl("stats")
        assert stats.timer_fires == 0

    def test_stats_ioctl_returns_a_copy(self, kernel):
        """The ioctl hands out a snapshot: corrupting it must not
        corrupt the module's accounting."""
        module = loaded_module(kernel)
        stats = module.ioctl("stats")
        stats.timer_fires = 12345
        assert module.stats.timer_fires == 0
        assert module.ioctl("stats").timer_fires == 0

    def test_config_rejects_nonpositive_capacity(self, kernel):
        module = loaded_module(kernel)
        with pytest.raises(ToolError):
            module.ioctl("config", config(capacity=0))
        with pytest.raises(ToolError):
            module.ioctl("config", config(capacity=-8))


class TestSampling:
    def test_periodic_samples_while_victim_runs(self, kernel):
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(1e7))  # ~3.7 ms
        module.ioctl("config", config(period=us(100)))
        module.ioctl("start", victim.pid)
        kernel.run_until_exit(victim, deadline=seconds(1))
        assert module.stats.timer_fires >= 30
        samples = module.read()
        assert len(samples) == module.buffer.total_pushed
        # Timestamps strictly increase.
        times = [sample.timestamp for sample in samples]
        assert times == sorted(times)

    def test_sample_values_monotonic(self, kernel):
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(1e7))
        module.ioctl("config", config(period=us(100)))
        module.ioctl("start", victim.pid)
        kernel.run_until_exit(victim, deadline=seconds(1))
        samples = module.read()
        loads = [sample.values["LOADS"] for sample in samples]
        assert loads == sorted(loads)

    def test_collection_stops_at_root_exit(self, kernel):
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(1e6))
        module.ioctl("config", config())
        module.ioctl("start", victim.pid)
        kernel.run_until_exit(victim, deadline=seconds(1))
        assert not module.collecting
        assert module.final_totals is not None
        fires_at_exit = module.stats.timer_fires
        kernel.run(deadline=kernel.now + ms(5))
        assert module.stats.timer_fires == fires_at_exit

    def test_final_totals_match_victim_instructions(self, kernel):
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(1e6))
        module.ioctl("config", config())
        module.ioctl("start", victim.pid)
        kernel.run_until_exit(victim, deadline=seconds(1))
        assert module.final_totals["INST_RETIRED"] == pytest.approx(1e6, rel=0.01)


class TestIsolation:
    def test_other_tasks_not_counted(self, kernel):
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(1e6, name="victim"))
        kernel.spawn(UniformComputeWorkload(5e6, name="bystander"))
        module.ioctl("config", config())
        module.ioctl("start", victim.pid)
        kernel.run(deadline=seconds(1))
        assert module.final_totals["INST_RETIRED"] == pytest.approx(1e6, rel=0.01)

    def test_timer_stops_when_victim_scheduled_out(self, kernel):
        """Paper Fig. 3: no samples while the monitored process is off
        the CPU."""
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(2e7))
        kernel.spawn(UniformComputeWorkload(2e7))
        module.ioctl("config", config(period=us(100)))
        module.ioctl("start", victim.pid)
        kernel.run(deadline=seconds(1))
        samples = module.read()
        # Victim cpu time ~7.5 ms: about 75 fire slots while it runs;
        # with a competitor sharing the core the wall clock is ~2x, so
        # an unisolated timer would have fired ~2x more.
        assert module.stats.timer_fires <= 80

    def test_existing_children_traced_at_start(self, kernel):
        def do_fork(k, task):
            k.spawn(UniformComputeWorkload(1e6), ppid=task.pid)

        parent = kernel.spawn(ListProgram("parent", [
            SyscallBlock("fork", handler=do_fork),
            RateBlock(instructions=3e7),   # keeps the parent alive ~11 ms
        ]))
        # Let the fork happen before K-LEB starts.
        kernel.run(deadline=ms(1))
        module = loaded_module(kernel)
        module.ioctl("config", config())
        module.ioctl("start", parent.pid)
        kernel.run(deadline=seconds(1))
        # Parent's tail (~3e7 minus the pre-start megainstructions) plus
        # the pre-existing child's 1e6 — only counted if the start-time
        # descendant walk picked the child up.
        assert module.final_totals["INST_RETIRED"] > 2.75e7


class TestSafetyMechanism:
    def test_buffer_backpressure_drops_and_resumes(self, kernel):
        """Paper §III: starved controller -> collection pauses; drain ->
        collection resumes automatically."""
        module = loaded_module(kernel)
        victim = kernel.spawn(UniformComputeWorkload(3e7))  # ~11 ms
        module.ioctl("config", config(period=us(100), capacity=16))
        module.ioctl("start", victim.pid)
        # Run half the program with nobody draining: buffer fills.
        kernel.run(deadline=ms(6))
        assert module.buffer.dropped > 0
        assert module.buffer.pause_episodes >= 1
        assert len(module.buffer) == 16
        drained = module.read()
        assert len(drained) == 16
        fires_before = module.buffer.total_pushed
        kernel.run(deadline=seconds(1))
        assert module.buffer.total_pushed > fires_before

    def test_read_before_config_rejected(self, kernel):
        module = loaded_module(kernel)
        with pytest.raises(ModuleError):
            module.read()

    def test_negative_read_rejected(self, kernel):
        """A negative max_items must fail loudly, not return an empty
        batch that reads as 'no samples pending'."""
        module = loaded_module(kernel)
        module.ioctl("config", config())
        with pytest.raises(ModuleError):
            module.read(-1)

