"""Property-based tests: the epoch charge paths equal the dict path.

A rate slice (``Core._run_rate``) and a kernel time charge
(``Kernel.charge_kernel_time``) hand the PMU one epoch: a name tuple
fixed per block or per kernel, plus aligned values.  Each must leave
every counter, every overflow status bit and the PMI delivery order
exactly where feeding the same slice to ``Pmu.accumulate`` as a dict
(the shape both paths used to build) leaves them.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KernelError, WorkloadError
from repro.hw.machine import Machine
from repro.hw.msr import MSR
from repro.hw.pmu import COUNTER_WIDTH_BITS, Pmu
from repro.hw.presets import i7_920
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.workloads.base import (IMPLICIT_EVENTS, BlockCursor, ListProgram,
                                  RateBlock)

WRAP = 1 << COUNTER_WIDTH_BITS
# A reference clock that differs from the core clock, so REF_CYCLES
# is not a copy of CORE_CYCLES.
CONFIG = replace(i7_920(), tsc_ratio=1.25)
RATE_EVENTS = ("LOADS", "STORES", "BRANCHES", "LLC_MISSES", "BRANCH_MISSES")
PROGRAMMED = ("LOADS", "STORES", "BRANCHES", "LLC_MISSES")

# Per programmable counter: (count user, count kernel, headroom to wrap).
layouts = st.lists(
    st.tuples(st.booleans(), st.booleans(), st.integers(1, 4_000)),
    min_size=len(PROGRAMMED), max_size=len(PROGRAMMED))
rates = st.dictionaries(
    st.sampled_from(RATE_EVENTS),
    st.one_of(st.just(0.0), st.floats(0.0, 1.5, allow_nan=False)),
    max_size=len(RATE_EVENTS))


def arm(pmu: Pmu, layout, pmis: list) -> None:
    """Program every counter near its wrap with a PMI on overflow, so
    slices cross the 48-bit boundary and deliver interrupts."""
    pmu.enable_fixed(user=True, kernel=True)
    for index, (name, (user, kernel, headroom)) in enumerate(
            zip(PROGRAMMED, layout)):
        pmu.program_counter(index, name, user=user, kernel=kernel,
                            interrupt_on_overflow=True)
        pmu.write_counter(index, WRAP - headroom)
    pmu.wrmsr(MSR.IA32_FIXED_CTR0, WRAP - 5_000)
    pmu.global_enable()
    pmu.set_overflow_handler(lambda pending: pmis.append(list(pending)))


def pmu_state(pmu: Pmu):
    return (list(pmu._pmc), list(pmu._fixed),
            pmu.msrs.read(MSR.IA32_PERF_GLOBAL_STATUS))


def reference_rate(machine: Machine, block: RateBlock, budget_ns: float):
    """The dict-shaped rate slice: what ``_run_rate`` charged as a dict."""
    core = machine.core
    take = min(block.instructions, core.ns_to_cycles(budget_ns) / block.cpi)
    if take <= 0:
        return 0.0
    cycles = take * block.cpi
    events = {name: rate * take for name, rate in block.rates.items()}
    events["INST_RETIRED"] = take
    events["CORE_CYCLES"] = cycles
    events["REF_CYCLES"] = cycles * core.tsc_ratio
    machine.pmu.accumulate(events, block.privilege)
    return take


def reference_charge(machine: Machine, config: KernelConfig,
                     duration_ns: int) -> None:
    """The dict-shaped kernel charge."""
    if duration_ns <= 0:
        return
    core = machine.core
    cycles = core.ns_to_cycles(duration_ns)
    instructions = cycles / config.kernel_work_cpi
    events = {name: rate * instructions
              for name, rate in config.kernel_work_rates.items()}
    events["INST_RETIRED"] = instructions
    events["CORE_CYCLES"] = cycles
    events["REF_CYCLES"] = cycles * core.tsc_ratio
    machine.pmu.accumulate(events, "kernel")


slices = st.lists(
    st.tuples(
        rates,
        st.floats(1.0, 3e4, allow_nan=False),       # block instructions
        st.floats(0.25, 4.0, allow_nan=False),      # cpi
        st.sampled_from(("user", "kernel")),
        st.one_of(st.just(0.0), st.floats(0.0, 2e4, allow_nan=False)),
        st.booleans(),                              # copy via replace
    ),
    max_size=30)


class TestRateSliceEpoch:
    @given(layouts, slices)
    @settings(max_examples=120, deadline=None)
    def test_run_rate_matches_dict_accumulate(self, layout, steps):
        machine, reference = Machine(CONFIG), Machine(CONFIG)
        pmis, reference_pmis = [], []
        arm(machine.pmu, layout, pmis)
        arm(reference.pmu, layout, reference_pmis)
        for block_rates, instructions, cpi, privilege, budget, copy in steps:
            block = RateBlock(instructions=instructions, rates=block_rates,
                              cpi=cpi, privilege=privilege)
            if copy:
                block = replace(block, instructions=instructions / 2)
            # The cursor runs a copy of the block (ListProgram copies
            # every prototype), so the reference sees the original.
            cursor = BlockCursor(ListProgram("slice", [block]))
            expected = reference_rate(reference, block, budget)
            _ns, take = machine.core._run_rate(cursor, cursor.peek(), budget)
            assert take == expected
            assert pmu_state(machine.pmu) == pmu_state(reference.pmu)
            assert pmis == reference_pmis

    def test_partial_takes_deliver_pmis_in_order(self):
        """A fixed example of what the property explores: two partial
        slices of one block cross the wrap of two counters."""
        layout = [(True, False, 30), (True, False, 10), (True, True, 50),
                  (False, True, 1)]
        machine, reference = Machine(CONFIG), Machine(CONFIG)
        pmis, reference_pmis = [], []
        arm(machine.pmu, layout, pmis)
        arm(reference.pmu, layout, reference_pmis)
        block = RateBlock(instructions=1_000.0,
                          rates={"LOADS": 0.5, "STORES": 0.25},
                          cpi=1.0)
        cursor = BlockCursor(ListProgram("slice", [block]))
        for budget in (30.0, 400.0):
            current = cursor.peek()
            expected = reference_rate(reference, current, budget)
            _ns, take = machine.core._run_rate(cursor, current, budget)
            assert take == expected
        assert pmis and pmis == reference_pmis
        assert pmu_state(machine.pmu) == pmu_state(reference.pmu)


class TestKernelChargeEpoch:
    @given(layouts, rates,
           st.lists(st.sampled_from((-5, 0, 1, 450, 700, 2_500, 12_345)),
                    max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_charge_kernel_time_matches_dict_accumulate(
            self, layout, work_rates, durations):
        config = KernelConfig(kernel_work_rates=work_rates)
        kernel = Kernel(Machine(CONFIG), config=config)
        reference = Machine(CONFIG)
        pmis, reference_pmis = [], []
        arm(kernel.pmu, layout, pmis)
        arm(reference.pmu, layout, reference_pmis)
        for duration in durations:
            kernel.charge_kernel_time(duration)
            reference_charge(reference, config, duration)
            assert pmu_state(kernel.pmu) == pmu_state(reference.pmu)
            assert pmis == reference_pmis


class TestImplicitEvents:
    def test_event_names_follow_rates_then_implicit(self):
        block = RateBlock(instructions=10.0,
                          rates={"STORES": 0.1, "LOADS": 0.2})
        assert block.event_names == ("STORES", "LOADS") + IMPLICIT_EVENTS

    def test_replace_recomputes_event_names(self):
        block = RateBlock(instructions=10.0, rates={"LOADS": 0.2})
        copied = replace(block, rates={"BRANCHES": 0.1})
        assert copied.event_names == ("BRANCHES",) + IMPLICIT_EVENTS

    @pytest.mark.parametrize("name", IMPLICIT_EVENTS)
    def test_rate_block_rejects_implicit_rate(self, name):
        with pytest.raises(WorkloadError):
            RateBlock(instructions=1.0, rates={name: 1.0})

    @pytest.mark.parametrize("name", IMPLICIT_EVENTS)
    def test_kernel_rejects_implicit_work_rate(self, name):
        config = KernelConfig(kernel_work_rates={name: 1.0})
        with pytest.raises(KernelError):
            Kernel(Machine(CONFIG), config=config)
