"""Tool registry and NullTool."""

import pytest

from repro.experiments.runner import run_monitored
from repro.tools.base import MonitoringTool
from repro.tools.null import NullTool
from repro.tools.registry import available_tools, create_tool
from repro.workloads.synthetic import UniformComputeWorkload


class TestRegistry:
    def test_all_paper_tools_available(self):
        names = available_tools()
        for expected in ("none", "k-leb", "perf-stat", "perf-record",
                         "papi", "limit"):
            assert expected in names

    def test_create_returns_fresh_instances(self):
        assert create_tool("k-leb") is not create_tool("k-leb")

    def test_created_tool_name_matches_registry_key(self):
        for name in available_tools():
            assert create_tool(name).name == name

    def test_unknown_tool(self):
        with pytest.raises(KeyError):
            create_tool("vtune")

    def test_all_are_monitoring_tools(self):
        for name in available_tools():
            assert isinstance(create_tool(name), MonitoringTool)


class TestNullTool:
    def test_null_run_produces_empty_report(self):
        result = run_monitored(UniformComputeWorkload(1e6), NullTool(),
                               seed=0)
        assert result.report.tool == "none"
        assert len(result.report.samples) == 0
        assert result.report.totals == {}
        assert result.wall_ns > 0

    def test_null_tool_leaves_pmu_disabled(self):
        result = run_monitored(UniformComputeWorkload(1e6), NullTool(),
                               seed=0)
        pmu = result.kernel.pmu
        from repro.hw.msr import MSR

        assert pmu.msrs.read(MSR.IA32_PERF_GLOBAL_CTRL) == 0
