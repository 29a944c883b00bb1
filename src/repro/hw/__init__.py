"""Simulated hardware: PMU, MSRs, caches, core, machine presets.

This layer substitutes for the Intel i7-920 / Xeon 8259CL hardware the
paper ran on.  The PMU exposes the same structure real tools program:
three fixed counters (instructions retired, core cycles, reference
cycles) and four programmable counters configured through event-select
registers with privilege masks (see DESIGN.md §2).
"""

from repro.hw.events import (Event, EventKind, EVENT_CATALOGUE, FIXED_EVENTS,
                             build_catalogue, events_by_kind)
from repro.hw.msr import MsrFile, MSR
from repro.hw.schedule import CounterAssignment, assign_counters, plan_groups
from repro.hw.pmu import Pmu, CounterSnapshot, NUM_PROGRAMMABLE, NUM_FIXED
from repro.hw.cache import CacheConfig, CacheLevel, CacheHierarchy, AccessResult
from repro.hw.core import Core, ExecResult, ExecStop
from repro.hw.machine import Machine, MachineConfig
from repro.hw.presets import i7_920, xeon_8259cl

__all__ = [
    "Event",
    "EventKind",
    "EVENT_CATALOGUE",
    "FIXED_EVENTS",
    "build_catalogue",
    "events_by_kind",
    "CounterAssignment",
    "assign_counters",
    "plan_groups",
    "MsrFile",
    "MSR",
    "Pmu",
    "CounterSnapshot",
    "NUM_PROGRAMMABLE",
    "NUM_FIXED",
    "CacheConfig",
    "CacheLevel",
    "CacheHierarchy",
    "AccessResult",
    "Core",
    "ExecResult",
    "ExecStop",
    "Machine",
    "MachineConfig",
    "i7_920",
    "xeon_8259cl",
]
