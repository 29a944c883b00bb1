"""Runner-level faults: retry with backoff, quarantine, jobs determinism."""

import logging
from dataclasses import replace

import pytest

from repro.experiments.runner import (
    MAX_TRIAL_ATTEMPTS,
    run_trial,
    run_trials,
)
from repro.faults import FaultPlan, RunLedger
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul

PERIOD_NS = 10_000_000


def run_faulted(plan, runs=3, jobs=1, base_seed=0):
    ledger = RunLedger()
    summaries = run_trials(
        TripleLoopMatmul(64), create_tool("k-leb"), runs=runs,
        period_ns=PERIOD_NS, base_seed=base_seed, jobs=jobs,
        faults=plan, fault_ledger=ledger,
    )
    return summaries, ledger


class TestTransientCrash:
    def test_crashing_trials_retry_and_complete(self):
        plan = FaultPlan(seed=1, trial_crash_prob=1.0)
        summaries, ledger = run_faulted(plan)
        assert len(summaries) == 3           # every trial recovered
        assert not ledger.quarantined
        for entry in ledger.trials:
            assert entry.attempts > 1
            kinds = [record.kind for record in entry.records]
            assert "worker-crash" in kinds
            assert "retry-backoff" in kinds  # backoff between attempts

    def test_summaries_match_unfaulted_run(self):
        """A transient crash retries with the same seed, so the final
        summary is bit-identical to a run that never crashed."""
        plan = FaultPlan(seed=1, trial_crash_prob=1.0)
        faulted, _ = run_faulted(plan, runs=2)
        clean = run_trials(TripleLoopMatmul(64), create_tool("k-leb"),
                           runs=2, period_ns=PERIOD_NS)
        assert faulted == clean


class TestPersistentFailure:
    def test_persistent_trials_are_quarantined_not_fatal(self):
        plan = FaultPlan(seed=1, trial_persistent_prob=1.0)
        summaries, ledger = run_faulted(plan)
        assert summaries == []               # nothing survived...
        assert len(ledger.quarantined) == 3  # ...but the run finished
        for entry in ledger.quarantined:
            assert entry.attempts == MAX_TRIAL_ATTEMPTS
            assert "persistent" in entry.error
        assert "quarantined" in ledger.render()

    def test_mixed_population_keeps_survivors(self):
        plan = FaultPlan(seed=4, trial_persistent_prob=0.4)
        summaries, ledger = run_faulted(plan, runs=8)
        assert 0 < len(summaries) < 8
        assert len(summaries) + len(ledger.quarantined) == 8
        # Survivors keep their original trial indices and seeds.
        surviving = {entry.trial for entry in ledger.trials
                     if not entry.quarantined}
        assert {s.trial for s in summaries} == surviving


class TestTimeout:
    def test_timed_out_trial_retries_once(self):
        plan = FaultPlan(seed=1, trial_timeout_prob=1.0)
        summaries, ledger = run_faulted(plan, runs=2)
        assert len(summaries) == 2
        assert [entry.attempts for entry in ledger.trials] == [2, 2]
        for entry in ledger.trials:
            kinds = [record.kind for record in entry.records]
            assert "trial-timeout" in kinds


class TestJobsDeterminism:
    def test_serial_and_parallel_identical(self):
        """Acceptance: same fault seed, jobs=1 vs jobs=4 — identical
        summaries AND identical fault ledgers."""
        plan = FaultPlan(seed=9, trial_crash_prob=0.4,
                         trial_timeout_prob=0.2,
                         ioctl_failure_prob=0.1, read_failure_prob=0.1,
                         timer_miss_prob=0.02)
        serial, serial_ledger = run_faulted(plan, runs=6, jobs=1)
        parallel, parallel_ledger = run_faulted(plan, runs=6, jobs=4)
        assert serial == parallel
        flatten = lambda ledger: [
            (e.trial, e.seed, e.attempts, e.quarantined, e.records)
            for e in ledger.trials
        ]
        assert flatten(serial_ledger) == flatten(parallel_ledger)

    def test_fate_independent_of_base_seed(self):
        """The fault schedule follows the plan seed, not the experiment
        seed: shifting base_seed must not change who crashes."""
        plan = FaultPlan(seed=9, trial_persistent_prob=0.5)
        _, ledger_a = run_faulted(plan, runs=6, base_seed=0)
        _, ledger_b = run_faulted(plan, runs=6, base_seed=100)
        assert [e.quarantined for e in ledger_a.trials] \
            == [e.quarantined for e in ledger_b.trials]


class TestTrialLogging:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_one_info_line_per_surviving_trial(self, caplog, jobs,
                                               faulted):
        plan = FaultPlan(seed=4, trial_persistent_prob=0.4) if faulted \
            else None
        with caplog.at_level(logging.INFO,
                             logger="repro.experiments.runner"):
            summaries, _ = run_faulted(plan, runs=6, jobs=jobs)
        done = [record for record in caplog.records
                if record.levelno == logging.INFO
                and record.getMessage().startswith("trial ")]
        assert len(done) == len(summaries) > 0
        quarantined = [record for record in caplog.records
                       if record.levelno == logging.WARNING]
        assert len(done) + len(quarantined) == 6


class TestSingleTrial:
    def test_no_plan_is_one_clean_attempt(self):
        outcome = run_trial(TripleLoopMatmul(64), create_tool("k-leb"), 3,
                            period_ns=PERIOD_NS, base_seed=2)
        assert outcome.attempts == 1 and not outcome.quarantined
        assert outcome.records == []
        [expected] = run_trials(TripleLoopMatmul(64), create_tool("k-leb"),
                                runs=1, period_ns=PERIOD_NS, base_seed=5)
        assert outcome.summary.seed == 5
        assert replace(outcome.summary, trial=0) == expected

    def test_benign_fate_single_attempt(self):
        outcome = run_trial(
            TripleLoopMatmul(64), create_tool("k-leb"), 0,
            plan=FaultPlan(seed=1, ioctl_failure_prob=0.0),
            period_ns=PERIOD_NS,
        )
        assert outcome.attempts == 1 and not outcome.quarantined
        assert outcome.summary is not None

    def test_real_errors_still_propagate(self):
        """Only injected failure modes are retried: a genuine error
        (unknown event name) surfaces unchanged."""
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_trial(
                TripleLoopMatmul(64), create_tool("k-leb"), 0,
                plan=FaultPlan(seed=1, trial_crash_prob=0.5),
                events=("NOT_AN_EVENT",), period_ns=PERIOD_NS,
            )
