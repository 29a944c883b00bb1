"""Kernel module framework: loading, ioctl dispatch."""

import pytest

from repro.errors import ModuleError
from repro.kernel.module import KernelModule


class RecordingModule(KernelModule):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.events = []

    def on_load(self, kernel):
        self.events.append("load")

    def ioctl(self, command, argument=None):
        self.events.append(("ioctl", command, argument))
        return command


class TestLifecycle:
    def test_load_attaches_and_calls_hook(self, kernel):
        module = RecordingModule()
        kernel.load_module(module)
        assert module.kernel is kernel
        assert module.events == ["load"]
        assert kernel.get_module("recorder") is module

    def test_double_load_rejected(self, kernel):
        kernel.load_module(RecordingModule())
        with pytest.raises(ModuleError):
            kernel.load_module(RecordingModule())

    def test_get_missing_rejected(self, kernel):
        with pytest.raises(ModuleError):
            kernel.get_module("ghost")

    def test_kernel_property_requires_load(self):
        module = RecordingModule()
        with pytest.raises(ModuleError):
            module.kernel


class TestDefaults:
    def test_default_ioctl_rejected(self, kernel):
        module = KernelModule()
        module.name = "bare"
        kernel.load_module(module)
        with pytest.raises(ModuleError):
            module.ioctl("anything")

    def test_default_read_rejected(self, kernel):
        module = KernelModule()
        module.name = "bare2"
        kernel.load_module(module)
        with pytest.raises(ModuleError):
            module.read()

    def test_ioctl_dispatch(self, kernel):
        module = RecordingModule()
        kernel.load_module(module)
        assert module.ioctl("config", {"x": 1}) == "config"
        assert ("ioctl", "config", {"x": 1}) in module.events
