"""Performance-counter monitoring tools.

K-LEB (the paper's contribution) plus the baselines it is evaluated
against: perf stat, perf record, PAPI, and LiMiT.  Every tool runs on
the same simulated machine/kernel substrate and is charged for every
action it takes, so overhead comparisons are mechanism-driven.
"""

from repro.samples import Sample
from repro.tools.base import (
    CounterGate,
    MonitoringTool,
    SampleColumns,
    Session,
    ToolReport,
)
from repro.tools.dbi import DbiTool
from repro.tools.kleb import KLebTool, KLebModule, KLebModuleConfig
from repro.tools.limit import LimitTool, LIMIT_PATCH
from repro.tools.null import NullTool
from repro.tools.papi import PapiTool
from repro.tools.perf import PerfRecordTool, PerfStatTool
from repro.tools.registry import available_tools, create_tool

__all__ = [
    "CounterGate",
    "MonitoringTool",
    "Sample",
    "SampleColumns",
    "Session",
    "ToolReport",
    "DbiTool",
    "KLebTool",
    "KLebModule",
    "KLebModuleConfig",
    "LimitTool",
    "LIMIT_PATCH",
    "NullTool",
    "PapiTool",
    "PerfRecordTool",
    "PerfStatTool",
    "available_tools",
    "create_tool",
]
