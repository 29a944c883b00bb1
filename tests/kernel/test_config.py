"""Kernel configuration and the syscall cost table."""

import pytest

from repro.kernel.config import KernelConfig, SyscallCosts
from repro.sim.clock import ms, us


class TestSyscallCosts:
    def test_known_calls_present(self):
        costs = SyscallCosts()
        for name in ("ioctl", "read", "write", "nanosleep", "fork"):
            assert name in costs.per_call_ns

    def test_fork_is_expensive(self):
        costs = SyscallCosts()
        assert costs.per_call_ns["fork"] > 5 * costs.per_call_ns["read"]


class TestKernelConfig:
    def test_defaults_match_paper_era(self):
        config = KernelConfig()
        assert config.quantum_ns == ms(4)            # 1-4 ms scheduler
        assert config.user_timer_resolution_ns == ms(10)   # perf's floor
        assert config.hrtimer_min_period_ns == us(10)
        assert config.kernel_version == "4.13"       # the paper's kernel

    def test_config_is_immutable(self):
        config = KernelConfig()
        with pytest.raises(Exception):
            config.quantum_ns = 1

    def test_kernel_work_rates_are_sane(self):
        config = KernelConfig()
        assert 0 < config.kernel_work_rates["LOADS"] < 1
        assert config.kernel_work_cpi >= 1.0

    def test_noise_parameters(self):
        config = KernelConfig()
        assert config.noise_enabled
        assert config.noise_rate_per_sec > 0
