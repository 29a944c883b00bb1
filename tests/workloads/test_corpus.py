"""SPEC-like corpus: distinctness and end-to-end identification."""

import itertools

import pytest

from repro.analysis.classify import WorkloadClass, classify_mpki
from repro.apps.verification import SignatureDatabase, signature_from_report
from repro.errors import WorkloadError
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.corpus import (
    CORPUS_PROFILES,
    CorpusWorkload,
    corpus_programs,
)

EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")


class TestCatalogue:
    def test_eight_programs(self):
        assert len(CORPUS_PROFILES) == 8

    def test_unknown_program_rejected(self):
        with pytest.raises(WorkloadError):
            CorpusWorkload("spice-like")

    def test_profiles_are_pairwise_distinct(self):
        """Every pair differs by >20% in at least one shared rate —
        the property that makes signatures separable."""
        for left, right in itertools.combinations(
                CORPUS_PROFILES.values(), 2):
            shared = set(left.rates) & set(right.rates)
            distinct = any(
                abs(left.rates[event] - right.rates[event])
                > 0.2 * max(left.rates[event], right.rates[event], 1e-9)
                for event in shared
            )
            assert distinct, (left.name, right.name)

    def test_blocks_sum_to_requested_length(self):
        workload = CorpusWorkload("gcc-like", instructions=1.23e7)
        total = sum(block.instructions for block in workload.blocks())
        assert total == pytest.approx(1.23e7)

    def test_metadata_supports_instrumentation(self):
        workload = CorpusWorkload("mcf-like")
        assert workload.metadata["cpi_hint"] == pytest.approx(2.4)

    def test_corpus_programs_factory(self):
        programs = corpus_programs(instructions=1e6)
        assert len(programs) == 8
        assert all(program.instructions == 1e6 for program in programs)

    def test_memory_bound_subset(self):
        names = {
            name for name, profile in CORPUS_PROFILES.items()
            if classify_mpki(profile.rates.get("LLC_MISSES", 0.0) * 1000)
            is WorkloadClass.MEMORY_INTENSIVE}
        assert "mcf-like" in names
        assert "lbm-like" in names
        assert "gcc-like" not in names


class TestIdentification:
    @pytest.fixture(scope="class")
    def database_and_reports(self):
        database = SignatureDatabase(tolerance=0.05)
        reports = {}
        for program in corpus_programs(instructions=2e7):
            result = run_monitored(program, create_tool("k-leb"),
                                   events=EVENTS, period_ns=ms(10), seed=0)
            database.enroll_report(result.report, program.name)
            reports[program.name] = result.report
        return database, reports

    def test_every_program_verifies_as_itself(self, database_and_reports):
        database, reports = database_and_reports
        for name, report in reports.items():
            verdict = database.verify(report, name)
            assert verdict.accepted, name

    def test_every_swap_is_caught(self, database_and_reports):
        """All 56 impostor pairings are rejected — the Bruska use case
        at corpus scale."""
        database, reports = database_and_reports
        for claimed, actual in itertools.permutations(reports, 2):
            verdict = database.verify(reports[actual], claimed)
            assert not verdict.accepted, (claimed, actual)
            assert verdict.best_match == actual

    def test_reruns_identify_correctly(self, database_and_reports):
        database, _ = database_and_reports
        rerun = run_monitored(CorpusWorkload("namd-like", instructions=2e7),
                              create_tool("k-leb"), events=EVENTS,
                              period_ns=ms(10), seed=77)
        verdict = database.verify(rerun.report, "namd-like")
        assert verdict.accepted
