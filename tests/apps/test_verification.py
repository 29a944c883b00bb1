"""Program-signature verification."""

import pytest

from repro.apps.verification import (
    ProgramSignature,
    SignatureDatabase,
    signature_from_report,
)
from repro.errors import ExperimentError
from repro.experiments.runner import run_monitored
from repro.sim.clock import ms
from repro.tools.base import SampleColumns, ToolReport
from repro.tools.registry import create_tool
from repro.workloads.dgemm import MklDgemm
from repro.workloads.matmul import TripleLoopMatmul

EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")


def make_report(totals):
    return ToolReport(tool="t", events=[e for e in totals if e != "INST_RETIRED"],
                      period_ns=0, samples=SampleColumns(), totals=totals,
                      victim_wall_ns=0, victim_pid=0)


class TestSignatures:
    def test_rates_are_per_kilo_instruction(self):
        report = make_report({"INST_RETIRED": 10_000.0, "LOADS": 2_500.0})
        signature = signature_from_report(report, "p")
        assert signature.rates_pki["LOADS"] == pytest.approx(250.0)

    def test_no_instructions_rejected(self):
        with pytest.raises(ExperimentError):
            signature_from_report(make_report({"LOADS": 1.0}), "p")

    def test_distance_zero_for_identical(self):
        a = ProgramSignature("a", {"LOADS": 100.0, "STORES": 50.0})
        assert a.distance(a) == 0.0

    def test_distance_symmetric(self):
        a = ProgramSignature("a", {"LOADS": 100.0})
        b = ProgramSignature("b", {"LOADS": 150.0})
        assert a.distance(b) == pytest.approx(b.distance(a))

    def test_disjoint_events_rejected(self):
        a = ProgramSignature("a", {"LOADS": 1.0})
        b = ProgramSignature("b", {"STORES": 1.0})
        with pytest.raises(ExperimentError):
            a.distance(b)


class TestDatabase:
    def test_verify_requires_enrollment(self):
        db = SignatureDatabase()
        with pytest.raises(ExperimentError):
            db.verify(make_report({"INST_RETIRED": 1.0, "LOADS": 1.0}), "x")

    def test_invalid_tolerance(self):
        with pytest.raises(ExperimentError):
            SignatureDatabase(tolerance=0)

    def test_enroll_and_names(self):
        db = SignatureDatabase()
        db.enroll(ProgramSignature("b", {"LOADS": 1.0}))
        db.enroll(ProgramSignature("a", {"LOADS": 2.0}))
        assert db.names() == ["a", "b"]
        assert len(db) == 2


@pytest.fixture(scope="module")
def monitored_reports():
    matmul = run_monitored(TripleLoopMatmul(400), create_tool("k-leb"),
                           events=EVENTS, period_ns=ms(10), seed=0)
    dgemm = run_monitored(MklDgemm(500), create_tool("k-leb"),
                          events=EVENTS, period_ns=ms(10), seed=0)
    return matmul.report, dgemm.report


class TestEndToEnd:
    def test_genuine_run_accepted(self, monitored_reports):
        matmul_report, dgemm_report = monitored_reports
        db = SignatureDatabase()
        db.enroll_report(matmul_report, "matmul")
        db.enroll_report(dgemm_report, "dgemm")
        verdict = db.verify(matmul_report, "matmul")
        assert verdict.accepted
        assert verdict.best_match == "matmul"
        assert not verdict.impostor

    def test_version_swap_detected(self, monitored_reports):
        """A 'dgemm' run claiming to be 'matmul' — the Bruska use case
        of catching a substituted library implementation."""
        matmul_report, dgemm_report = monitored_reports
        db = SignatureDatabase()
        db.enroll_report(matmul_report, "matmul")
        db.enroll_report(dgemm_report, "dgemm")
        verdict = db.verify(dgemm_report, "matmul")
        assert not verdict.accepted
        assert verdict.impostor
        assert verdict.best_match == "dgemm"

    def test_rerun_of_same_program_accepted(self, monitored_reports):
        """Signatures are stable across runs (different seed/noise)."""
        matmul_report, dgemm_report = monitored_reports
        db = SignatureDatabase()
        db.enroll_report(matmul_report, "matmul")
        db.enroll_report(dgemm_report, "dgemm")
        rerun = run_monitored(TripleLoopMatmul(400), create_tool("k-leb"),
                              events=EVENTS, period_ns=ms(10), seed=9)
        verdict = db.verify(rerun.report, "matmul")
        assert verdict.accepted

    def test_tampered_program_rejected_without_impostor(self,
                                                        monitored_reports):
        matmul_report, _ = monitored_reports
        db = SignatureDatabase(tolerance=0.02)
        db.enroll_report(matmul_report, "matmul")
        # A 'patched' matmul with a different inner loop mix.
        tampered = dict(matmul_report.totals)
        tampered["LOADS"] *= 1.6
        tampered["BRANCHES"] *= 0.5
        verdict = db.verify(make_report(tampered), "matmul")
        assert not verdict.accepted
        assert not verdict.impostor  # nothing else enrolled matches either
