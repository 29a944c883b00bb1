"""The fault ledgers and the fault metrics agree by construction.

``faults_landed_total``, ``trials_retried_total`` and
``trials_quarantined_total`` are projections of the registered fault
and trial ledgers, never hook counts.  These checks run the two faulted
populations the golden digests pin (``obs/metrics-faulted`` and the
``faults/*`` ledger population of ``tests/test_golden_digests.py``)
serially and over a fork pool, and hold the metrics against:

* every ``fault:<kind>`` trace instant, one per fault landed in any
  attempt (aborted ones included) — and, serially, against the records
  of every attempt's injector ledger plus the runner's own records;
* the run ledger: retries are Σ(attempts − 1), quarantines are its
  quarantined trials, and its survivor view never exceeds the metric
  outside the ``runner`` site (which adds ``retry-backoff`` records).
"""

from collections import Counter

import pytest

from repro.experiments import runner
from repro.experiments.runner import run_trials
from repro.faults import FaultInjector, FaultPlan, RunLedger
from repro.obs import hooks
from repro.sim.clock import ms
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul

_EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")

# The two faulted populations of the golden-digest suite.
_POPULATIONS = {
    "obs-faulted": dict(
        program=lambda: TripleLoopMatmul(384),
        tool=lambda: KLebTool(buffer_capacity=16, controller_nice=10),
        runs=6, period_ns=ms(5), base_seed=0,
        spec="seed=5,ioctl=0.75,read=0.75,squeeze=0.5,starve=0.6"),
    "crash-timeout": dict(
        program=lambda: TripleLoopMatmul(128),
        tool=lambda: create_tool("k-leb"),
        runs=4, period_ns=ms(10), base_seed=5,
        spec=("seed=9,timer_jitter=0.3,timer_miss=0.15,ioctl=0.2,"
              "read=0.1,squeeze=0.3,starve=0.3,pmu_wrap=100000,"
              "crash=0.3,timeout=0.2")),
}


def _run(name, jobs):
    """Run a population under a fresh recorder: (recorder, ledger)."""
    population = _POPULATIONS[name]
    ledger = RunLedger()
    recorder = hooks.Recorder()
    hooks.install(recorder)
    try:
        run_trials(population["program"](), population["tool"](),
                   runs=population["runs"], events=_EVENTS,
                   period_ns=population["period_ns"],
                   base_seed=population["base_seed"], jobs=jobs,
                   faults=FaultPlan.parse(population["spec"]),
                   fault_ledger=ledger)
    finally:
        hooks.reset()
    return recorder, ledger


def _landed(registry):
    family = registry.get("faults_landed_total")
    return {values[0]: int(series.value)
            for values, series in family.series.items()}


def _traced_sites(recorder):
    return Counter(event["args"]["site"]
                   for event in recorder.tracer.to_dicts()
                   if str(event.get("name", "")).startswith("fault:"))


def _value(registry, name):
    return int(registry.get(name).default.value)


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("name", sorted(_POPULATIONS))
def test_fault_metrics_project_the_ledgers(name, jobs):
    recorder, ledger = _run(name, jobs)
    registry = recorder.registry
    landed = _landed(registry)
    assert landed and landed == dict(_traced_sites(recorder))
    assert _value(registry, "trials_retried_total") == sum(
        entry.attempts - 1 for entry in ledger.trials) > 0
    assert _value(registry, "trials_quarantined_total") == len(
        ledger.quarantined)
    # The run ledger keeps only the surviving attempt's injector
    # records, so it can only undercount the metric; the runner site
    # also holds the retry-backoff records the metric leaves out.
    for site, count in ledger.site_counts().items():
        if site != "runner":
            assert count <= landed[site], site


@pytest.mark.parametrize("name", sorted(_POPULATIONS))
def test_every_attempts_records_are_the_fault_count(name, monkeypatch):
    """Serially, the metric is the per-site count of the records of
    every attempt's injector plus the runner's failure records."""
    injectors = []

    class Recording(FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    monkeypatch.setattr(runner, "FaultInjector", Recording)
    recorder, ledger = _run(name, jobs=1)
    records = [record for injector in injectors
               for record in injector.ledger.records]
    records += [record for entry in ledger.trials
                for record in entry.records
                if record.site == "runner"
                and record.kind != "retry-backoff"]
    assert len(injectors) == sum(entry.attempts for entry in ledger.trials)
    assert _landed(recorder.registry) == dict(
        Counter(record.site for record in records))
