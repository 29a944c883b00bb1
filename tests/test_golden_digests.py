"""Golden-digest determinism gate for the hot-path optimizations.

The simulator's hot loops (PMU accumulation, event-queue re-arm, trace
replay) carry fast paths that are required to be **bit-identical** to
the straightforward implementations.  This test pins that contract:
scaled-down versions of the paper's table2 / fig7 / fig9 scenarios —
plus a fault-injected population, whose ledger must also be stable —
are run with fixed seeds and their ``ToolReport`` JSON is hashed with
SHA-256 against digests recorded in ``tests/data/golden_digests.json``.

The recorded digests were generated *before* the fast paths landed, so
a match proves the optimized code produces byte-for-byte the same
reports the reference implementation did.

Regenerate (only when a deliberate semantic change occurs)::

    PYTHONPATH=src python tests/test_golden_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.control import ControlConfig
from repro.experiments import fig9
from repro.experiments.runner import run_monitored, run_trials
from repro.hw.cache import CacheHierarchy
from repro.faults import FaultPlan, RunLedger
from repro.obs import hooks as obs_hooks
from repro.sim.clock import ms, us
from repro.tools.base import ToolReport
from repro.tools.kleb.tool import KLebTool
from repro.tools.registry import create_tool
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter
from repro.workloads.synthetic import PhaseShiftWorkload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"

# Scaled-down scenario parameters: small enough for the tier-1 gate,
# large enough to exercise every hot path (sliced rate blocks, trace
# replay with flushes, 100 us re-arm, instrumented tools, faults).
_TABLE2_TOOLS = ("k-leb", "perf-stat", "perf-record", "papi", "limit")
_TABLE2_EVENTS = ("LOADS", "STORES", "BRANCHES", "ARITH_MUL")
_FIG7_EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")
_FIG7_SECRET = "Sq!mish"
_FAULT_SPEC = ("seed=9,timer_jitter=0.3,timer_miss=0.15,ioctl=0.2,"
               "read=0.1,squeeze=0.3,starve=0.3,pmu_wrap=100000,"
               "crash=0.3,timeout=0.2")


def report_document(report: ToolReport) -> Dict:
    """The lossless JSON document for a report (mirrors ``repro.io``)."""
    return {
        "tool": report.tool,
        "events": list(report.events),
        "period_ns": report.period_ns,
        "victim_wall_ns": report.victim_wall_ns,
        "victim_pid": report.victim_pid,
        "totals": dict(report.totals),
        "metadata": dict(report.metadata),
        "samples": [
            {"timestamp": sample.timestamp, "values": dict(sample.values)}
            for sample in report.samples
        ],
        # Adaptive runs only; omitting the key otherwise keeps every
        # pre-control digest byte-identical.
        **({"control": [dict(row) for row in report.control]}
           if report.control is not None else {}),
    }


def _sha256(document) -> str:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_report(report: ToolReport) -> str:
    return _sha256(report_document(report))


def compute_table2_digests() -> Dict[str, str]:
    """Per-tool single-trial digests of the Table II recipe (matmul)."""
    digests: Dict[str, str] = {}
    for name in _TABLE2_TOOLS:
        result = run_monitored(
            TripleLoopMatmul(192), create_tool(name),
            events=_TABLE2_EVENTS, period_ns=ms(10), seed=11,
        )
        digests[f"table2/{name}"] = _sha256({
            "report": report_document(result.report),
            "wall_ns": result.wall_ns,
            "cpu_ns": result.cpu_ns,
        })
    return digests


def compute_fig7_digests() -> Dict[str, str]:
    """Clean vs attack 100 us K-LEB series (the Fig. 7 recipe)."""
    digests: Dict[str, str] = {}
    for label, program in (("clean", SecretPrinter(_FIG7_SECRET)),
                           ("attack", MeltdownAttack(_FIG7_SECRET))):
        result = run_monitored(
            program, create_tool("k-leb"), events=_FIG7_EVENTS,
            period_ns=us(100), seed=7,
        )
        digests[f"fig7/{label}"] = _sha256({
            "report": report_document(result.report),
            "wall_ns": result.wall_ns,
        })
    return digests


def compute_fig9_digests() -> Dict[str, str]:
    """Cross-tool count-accuracy reports (the Fig. 9 recipe)."""
    result = fig9.run(n=192, period_ns=ms(10), seed=3)
    digests = {
        f"fig9/{name}": digest_report(report)
        for name, report in sorted(result.reports.items())
    }
    digests["fig9/matrix"] = _sha256(result.matrix)
    return digests


def compute_fault_digests() -> Dict[str, str]:
    """Faulted population: summaries *and* the fault ledger must pin."""
    ledger = RunLedger()
    summaries = run_trials(
        TripleLoopMatmul(128), create_tool("k-leb"), runs=4,
        events=_TABLE2_EVENTS, period_ns=ms(10), base_seed=5,
        faults=FaultPlan.parse(_FAULT_SPEC), fault_ledger=ledger,
    )
    summary_docs = [
        {
            "trial": summary.trial,
            "seed": summary.seed,
            "wall_ns": summary.wall_ns,
            "cpu_ns": summary.cpu_ns,
            "program_name": summary.program_name,
            "program_metadata": dict(summary.program_metadata),
            "scratch": dict(summary.scratch),
            "report": report_document(summary.report),
        }
        for summary in summaries
    ]
    ledger_docs = [
        {
            "trial": entry.trial,
            "seed": entry.seed,
            "attempts": entry.attempts,
            "quarantined": entry.quarantined,
            "error": entry.error,
            "records": [
                {"time_ns": record.time_ns, "site": record.site,
                 "kind": record.kind, "detail": record.detail}
                for record in entry.records
            ],
        }
        for entry in ledger.trials
    ]
    return {
        "faults/summaries": _sha256(summary_docs),
        "faults/ledger": _sha256(ledger_docs),
    }


_MUX_EVENTS = ("LOADS", "STORES", "BRANCHES", "BRANCH_MISSES",
               "LLC_REFERENCES", "LLC_MISSES", "ARITH_MUL", "FP_OPS")


def compute_multiplex_digests(jobs: int = 1) -> Dict[str, str]:
    """Multiplexed populations: two rotating groups of four events.

    The scaled-estimate accounting (group rotation, CORE_CYCLES
    time-base, overflow consumption) must be deterministic across
    seeds, worker counts, and fault injection.
    """
    tool = create_tool("k-leb")
    tool.multiplex_period_ns = ms(1)
    summaries = run_trials(
        TripleLoopMatmul(128), tool, runs=3,
        events=_MUX_EVENTS, period_ns=us(100), base_seed=13, jobs=jobs,
    )
    faulted = run_trials(
        TripleLoopMatmul(128), tool, runs=3,
        events=_MUX_EVENTS, period_ns=us(100), base_seed=13, jobs=jobs,
        faults=FaultPlan.parse("seed=9,pmu_wrap=100000"),
    )
    return {
        "multiplex/summaries": _sha256(
            [report_document(summary.report) for summary in summaries]
        ),
        "multiplex/faulted": _sha256(
            [report_document(summary.report) for summary in faulted]
        ),
    }


_ADAPT_PHASES = (30e6, 24e6, 36e6, 20e6)
_ADAPT_FAULT_SPEC = ("seed=21,timer_jitter=0.2,ioctl=0.15,squeeze=0.2,"
                     "control_sensor=0.15,control_freeze=0.1,"
                     "control_freeze_cycles=3")


def _adaptive_tool() -> KLebTool:
    return KLebTool(control=ControlConfig(
        overhead_budget_percent=2.0,
        min_period_ns=us(100),
        max_period_ns=ms(10),
    ))


def compute_adaptive_digests(jobs: int = 1) -> Dict[str, str]:
    """Closed-loop populations: clean and under control-site faults.

    The controller is a pure function of the observation sequence, so
    adaptive reports — the control ledger included — must pin across
    worker counts exactly like the fixed-period scenarios.
    """
    summaries = run_trials(
        PhaseShiftWorkload.alternating(_ADAPT_PHASES), _adaptive_tool(),
        runs=3, events=_TABLE2_EVENTS, period_ns=ms(1), base_seed=17,
        jobs=jobs,
    )
    faulted = run_trials(
        PhaseShiftWorkload.alternating(_ADAPT_PHASES), _adaptive_tool(),
        runs=3, events=_TABLE2_EVENTS, period_ns=ms(1), base_seed=17,
        jobs=jobs, faults=FaultPlan.parse(_ADAPT_FAULT_SPEC),
    )
    return {
        "adaptive/summaries": _sha256(
            [report_document(summary.report) for summary in summaries]
        ),
        "adaptive/faulted": _sha256(
            [report_document(summary.report) for summary in faulted]
        ),
    }


_SMP_FAULT_SPEC = ("seed=9,timer_jitter=0.3,timer_miss=0.15,ioctl=0.2,"
                   "read=0.1,squeeze=0.3,pmu_wrap=100000")


def _smp_run_document(result) -> Dict:
    return {
        "report": report_document(result.report),
        "wall_ns": result.wall_ns,
        "migrations": result.migrations,
        "cores": result.cores,
        "sockets": result.sockets,
        "uncore_bandwidth": list(result.uncore_bandwidth_bytes_per_sec),
        "uncore_totals": [dict(totals) for totals in result.uncore_totals],
    }


def compute_smp_digests(jobs: int = 1) -> Dict[str, str]:
    """Migrating 4-core populations: clean and under shared faults.

    Every source of SMP nondeterminism candidates — migration RNG,
    per-CPU ring merge order, lockstep uncore sampling, the shared
    fault injector, fork-pool fan-out — must wash out: the per-trial
    documents (merged sample series, per-CPU totals, migration counts,
    uncore bandwidth) pin bit-for-bit across repeats and worker counts.
    """
    from repro.experiments.smp import run_smp_trials

    clean = run_smp_trials(3, jobs=jobs, base_seed=23, cores=4,
                           migrate=True, service_accesses=80_000,
                           streamer_accesses=50_000)
    faulted = run_smp_trials(3, jobs=jobs, base_seed=23, cores=4,
                             migrate=True, service_accesses=80_000,
                             streamer_accesses=50_000,
                             fault_plan=FaultPlan.parse(_SMP_FAULT_SPEC))
    return {
        "smp/clean": _sha256(
            [_smp_run_document(result) for result in clean]),
        "smp/faulted": _sha256(
            [_smp_run_document(result) for result in faulted]),
    }


_OBS_FAULT_SPEC = "seed=5,ioctl=0.75,read=0.75,squeeze=0.5,starve=0.6"


def _recorded_metrics(run) -> str:
    """Prometheus export of ``run()`` under a fresh recorder."""
    recorder = obs_hooks.Recorder(trace=False)
    obs_hooks.install(recorder)
    try:
        run()
    finally:
        obs_hooks.reset()
    return recorder.registry.to_prometheus()


def compute_obs_digests(jobs: int = 1) -> Dict[str, str]:
    """Trace/metrics exports of pinned-seed obs-enabled populations.

    The exports are a pure function of the simulated run (no wall
    clock), so their digests pin both the recorded event stream and
    the canonical serialization across Python versions.  Beyond the
    clean population, three metrics exports cover every K-LEB count
    family: a starved, squeezed, retry-heavy population whose aborted
    attempts (quarantined trials included) must still count; a
    multiplexed adaptive population under control-site faults; and a
    migrating 4-core SMP population.
    """
    recorder = obs_hooks.Recorder()
    obs_hooks.install(recorder)
    try:
        run_trials(
            TripleLoopMatmul(128), create_tool("k-leb"), runs=2,
            events=_TABLE2_EVENTS, period_ns=ms(10), base_seed=11,
            jobs=jobs,
        )
    finally:
        obs_hooks.reset()
    from repro.experiments.smp import run_smp_trials

    adaptive_tool = KLebTool(multiplex_period_ns=ms(2),
                             control=ControlConfig(
                                 overhead_budget_percent=0.5,
                                 min_period_ns=us(100),
                                 max_period_ns=ms(10)))
    return {
        "obs/trace": _sha256_text(recorder.tracer.to_chrome_json()),
        "obs/metrics": _sha256_text(recorder.registry.to_prometheus()),
        "obs/metrics-faulted": _sha256_text(_recorded_metrics(
            lambda: run_trials(
                TripleLoopMatmul(384),
                KLebTool(buffer_capacity=16, controller_nice=10), runs=6,
                events=_TABLE2_EVENTS, period_ns=ms(5), jobs=jobs,
                faults=FaultPlan.parse(_OBS_FAULT_SPEC)))),
        "obs/metrics-adaptive": _sha256_text(_recorded_metrics(
            lambda: run_trials(
                PhaseShiftWorkload.alternating(
                    [8 * phase for phase in _ADAPT_PHASES]),
                adaptive_tool, runs=3, events=_MUX_EVENTS,
                period_ns=us(500), base_seed=17, jobs=jobs,
                faults=FaultPlan.parse(_ADAPT_FAULT_SPEC)))),
        "obs/metrics-smp": _sha256_text(_recorded_metrics(
            lambda: run_smp_trials(
                2, jobs=jobs, base_seed=23, cores=4, migrate=True,
                service_accesses=80_000, streamer_accesses=50_000))),
    }


def compute_all_digests() -> Dict[str, str]:
    digests: Dict[str, str] = {}
    digests.update(compute_table2_digests())
    digests.update(compute_fig7_digests())
    digests.update(compute_fig9_digests())
    digests.update(compute_fault_digests())
    digests.update(compute_multiplex_digests())
    digests.update(compute_adaptive_digests())
    digests.update(compute_smp_digests())
    digests.update(compute_obs_digests())
    return digests


def _load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


# -- tolerance tier ---------------------------------------------------------
#
# Digests are exact by default.  A scenario whose canonical document
# contains floats that a deliberate summation reorder may legitimately
# perturb (and nothing else) can be moved from ``digests`` into the
# golden file's ``tolerance`` section: the entry then stores the full
# reference document plus a relative epsilon, and the gate compares
# field by field instead of hashing.  Integer counters, layouts, fault
# ledgers, and mux rotation never qualify — see docs/architecture.md.
# The tier is currently empty: every optimized path is bit-identical.

DEFAULT_TOLERANCE_EPSILON = 1e-9


def _load_tolerance() -> Dict[str, Dict]:
    return json.loads(GOLDEN_PATH.read_text()).get("tolerance", {})


def fields_match(reference, candidate, epsilon: float) -> bool:
    """Structural equality with relative-epsilon floats.

    Containers must match in shape and key set; strings, ints, bools,
    and None compare exactly; a comparison where either side is a
    float passes when ``|a - b| <= epsilon * max(|a|, |b|)``.
    """
    if isinstance(reference, bool) or isinstance(candidate, bool):
        return reference is candidate
    if isinstance(reference, float) or isinstance(candidate, float):
        if not (isinstance(reference, (int, float))
                and isinstance(candidate, (int, float))):
            return False
        if reference == candidate:
            return True
        scale = max(abs(reference), abs(candidate))
        return abs(reference - candidate) <= epsilon * scale
    if isinstance(reference, dict):
        return (isinstance(candidate, dict)
                and reference.keys() == candidate.keys()
                and all(fields_match(reference[key], candidate[key], epsilon)
                        for key in reference))
    if isinstance(reference, (list, tuple)):
        return (isinstance(candidate, (list, tuple))
                and len(reference) == len(candidate)
                and all(fields_match(ref, cand, epsilon)
                        for ref, cand in zip(reference, candidate)))
    return type(reference) is type(candidate) and reference == candidate


def assert_matches_golden(computed: Dict[str, str], golden: Dict[str, str],
                          prefix: str, documents: Dict[str, Dict] = None
                          ) -> None:
    """Gate one scenario family against the golden file.

    Keys in the exact tier compare digest-to-digest.  Keys in the
    tolerance tier compare the recomputed canonical document (supplied
    via ``documents``) field-by-field against the stored reference at
    the entry's epsilon.
    """
    tolerance = _load_tolerance()
    expected = {key: value for key, value in golden.items()
                if key.startswith(prefix) and key not in tolerance}
    exact = {key: value for key, value in computed.items()
             if key not in tolerance}
    assert exact == expected
    for key, entry in tolerance.items():
        if not key.startswith(prefix):
            continue
        assert documents is not None and key in documents, (
            f"{key} is in the tolerance tier but its compute function "
            "did not supply the canonical document for comparison"
        )
        epsilon = entry.get("epsilon", DEFAULT_TOLERANCE_EPSILON)
        assert fields_match(entry["fields"], documents[key], epsilon), (
            f"{key} drifted beyond relative epsilon {epsilon}"
        )


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(f"golden digest file missing: {GOLDEN_PATH}")
    return _load_golden()


def test_table2_digests_match_golden(golden):
    computed = compute_table2_digests()
    assert_matches_golden(computed, golden, "table2/")


def test_fig7_digests_match_golden(golden):
    computed = compute_fig7_digests()
    assert_matches_golden(computed, golden, "fig7/")


def test_fig7_digests_match_golden_when_served(golden, monkeypatch):
    """The Fig. 7 digests computed twice in one process: the second
    time, each trial's trace history is one the first recorded, so its
    trace slices are served from the replay memo instead of replayed."""
    compute_fig7_digests()
    served = []
    release = CacheHierarchy.release

    def counting(self):
        served.append(self.served_slices)
        release(self)

    monkeypatch.setattr(CacheHierarchy, "release", counting)
    assert_matches_golden(compute_fig7_digests(), golden, "fig7/")
    assert len(served) == 2 and all(served)


def test_fig9_digests_match_golden(golden):
    computed = compute_fig9_digests()
    assert_matches_golden(computed, golden, "fig9/")


def test_fault_digests_match_golden(golden):
    computed = compute_fault_digests()
    assert_matches_golden(computed, golden, "faults/")


def test_multiplex_digests_match_golden(golden):
    computed = compute_multiplex_digests()
    assert_matches_golden(computed, golden, "multiplex/")


def test_multiplex_digests_identical_across_worker_counts(golden):
    """jobs=4 must hash to the jobs=1 golden values bit for bit."""
    computed = compute_multiplex_digests(jobs=4)
    assert_matches_golden(computed, golden, "multiplex/")


def test_adaptive_digests_match_golden(golden):
    computed = compute_adaptive_digests()
    assert_matches_golden(computed, golden, "adaptive/")


def test_adaptive_digests_identical_across_worker_counts(golden):
    """jobs=4 must hash to the jobs=1 golden values bit for bit —
    the closed loop (and its faulted ladder history) draws nothing
    from worker scheduling."""
    computed = compute_adaptive_digests(jobs=4)
    assert_matches_golden(computed, golden, "adaptive/")


def test_smp_digests_match_golden(golden):
    computed = compute_smp_digests()
    assert_matches_golden(computed, golden, "smp/")


def test_smp_digests_identical_across_worker_counts(golden):
    """jobs=4 must hash to the jobs=1 golden values bit for bit: each
    trial's cluster (migration stream included) is a pure function of
    its index."""
    computed = compute_smp_digests(jobs=4)
    assert_matches_golden(computed, golden, "smp/")


def test_obs_enabled_report_digest_equals_obs_off(golden):
    """Recording must never perturb simulated results: the table2
    k-leb recipe run under a live recorder hashes to the *same* digest
    the obs-off golden run pinned."""
    recorder = obs_hooks.Recorder()
    obs_hooks.install(recorder)
    try:
        result = run_monitored(
            TripleLoopMatmul(192), create_tool("k-leb"),
            events=_TABLE2_EVENTS, period_ns=ms(10), seed=11,
        )
    finally:
        obs_hooks.reset()
    digest = _sha256({
        "report": report_document(result.report),
        "wall_ns": result.wall_ns,
        "cpu_ns": result.cpu_ns,
    })
    assert digest == golden["table2/k-leb"]
    # ...and it genuinely recorded while doing so.
    assert len(recorder.tracer) > 0
    assert recorder.registry.get(
        "sim_events_fired_total").default.value > 0


def test_obs_digests_match_golden(golden):
    computed = compute_obs_digests()
    assert_matches_golden(computed, golden, "obs/")


def test_faulted_obs_export_counts_every_family():
    """The faulted population behind ``obs/metrics-faulted`` exercises
    every ring family, drain shrinks, all three retry ops and a
    quarantine, so its pin covers each of those counts."""
    from repro.obs.metrics import parse_prometheus_text

    parsed = parse_prometheus_text(_recorded_metrics(
        lambda: run_trials(
            TripleLoopMatmul(384),
            KLebTool(buffer_capacity=16, controller_nice=10), runs=6,
            events=_TABLE2_EVENTS, period_ns=ms(5),
            faults=FaultPlan.parse(_OBS_FAULT_SPEC))))

    def value(name, labels=""):
        return parsed[name]["samples"][labels]

    for family in ("pushes_total", "dropped_total", "pause_episodes_total",
                   "resume_total", "squeeze_episodes_total",
                   "depth_high_water"):
        assert value(f"ringbuffer_{family}") > 0, family
    assert value("kleb_drain_shrinks_total") > 0
    for op in ("ioctl", "read", "recovery-read"):
        assert value("kleb_retries_total", '{op="%s"}' % op) > 0, op
    assert value("trials_quarantined_total") >= 1


def test_obs_digests_identical_across_worker_counts(golden):
    """jobs=4 must hash to the jobs=1 golden values bit for bit: every
    trial's counts travel home in its chunk and merge in trial order."""
    computed = compute_obs_digests(jobs=4)
    assert_matches_golden(computed, golden, "obs/")


class TestToleranceComparator:
    """The per-field comparator backing the (currently empty) tier."""

    def test_non_float_fields_compare_exactly(self):
        doc = {"tool": "k-leb", "period_ns": 100_000,
               "samples": [{"timestamp": 7, "values": {"LOADS": 3}}]}
        assert fields_match(doc, json.loads(json.dumps(doc)), 1e-9)
        assert not fields_match({"n": 5}, {"n": 6}, 1e-2)
        assert not fields_match({"n": "5"}, {"n": 5}, 1e-2)
        assert not fields_match({"n": True}, {"n": 1}, 1e-2)

    def test_floats_pass_within_relative_epsilon(self):
        assert fields_match({"mean": 1.0}, {"mean": 1.0 + 5e-10}, 1e-9)
        assert fields_match({"mean": -1e12}, {"mean": -1e12 * (1 + 1e-10)},
                            1e-9)
        # Int-vs-float mixes are numeric when either side is a float.
        assert fields_match({"mean": 2.0}, {"mean": 2}, 1e-9)

    def test_floats_fail_beyond_relative_epsilon(self):
        assert not fields_match({"mean": 1.0}, {"mean": 1.0 + 5e-9}, 1e-9)
        assert not fields_match({"mean": 0.0}, {"mean": 1e-30}, 1e-9)

    def test_shape_mismatches_fail(self):
        assert not fields_match({"a": 1}, {"a": 1, "b": 2}, 1e-9)
        assert not fields_match([1, 2], [1, 2, 3], 1e-9)
        assert not fields_match({"a": [1]}, {"a": {"0": 1}}, 1e-9)

    def test_tolerance_tier_is_empty(self):
        """Every optimized path is bit-identical today; moving a key
        into the tier is a reviewed decision, not drift."""
        assert _load_tolerance() == {}


def _regen() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "note": ("SHA-256 digests of canonical report JSON for pinned-"
                 "seed scenarios; generated by "
                 "`python tests/test_golden_digests.py --regen` against "
                 "the pre-optimization reference implementation."),
        "digests": compute_all_digests(),
        # Exact by default: entries move here (full reference document
        # + relative epsilon) only for documented float-summation
        # reorders — see docs/architecture.md.
        "tolerance": _load_tolerance() if GOLDEN_PATH.exists() else {},
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {len(document['digests'])} digests to {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
