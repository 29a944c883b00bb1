"""Fault ledgers: what was injected, where, and how it was absorbed.

Measurement infrastructure fails in ways that silently corrupt results
(Becker & Chakraborty); the ledger is the antidote — every injected
fault and every recovery action is recorded as a plain-data
:class:`FaultRecord`, rolled up per trial, and reported with the run.
Records are ordinary dataclasses of ints and strings so they pickle
across worker-pool boundaries and compare bit-for-bit between serial
and parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import hooks as _obs_hooks


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault or recovery action.

    ``time_ns`` is simulated time for in-kernel sites and 0 for
    runner-level events (which happen outside any simulation).
    """

    time_ns: int
    site: str        # "hrtimer" | "ioctl" | "read" | "ringbuffer" | "pmu" | "control" | "runner"
    kind: str        # e.g. "missed-deadline", "transient-failure", "backoff"
    detail: str = ""


class FaultLedger:
    """Append-only record stream for one kernel/injector instance: the
    one store of its faults, registered (without its injector) with
    the active recorder."""

    def __init__(self) -> None:
        self.records: List[FaultRecord] = []
        self._obs = _obs_hooks.active()
        if self._obs is not None:
            self._obs.fault_ledgers.append(self)

    def record(self, time_ns: int, site: str, kind: str,
               detail: str = "") -> None:
        self.records.append(FaultRecord(time_ns=int(time_ns), site=site,
                                        kind=kind, detail=detail))
        if self._obs is not None:
            self._obs.fault_landed(int(time_ns), site, kind)

    def count(self, site: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        return sum(
            1 for record in self.records
            if (site is None or record.site == site)
            and (kind is None or record.kind == kind)
        )

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TrialLedger:
    """Per-trial roll-up: attempts, outcome, the runner's records and
    the surviving attempt's injector records; registers like
    :class:`FaultLedger`."""

    trial: int
    seed: int
    attempts: int = 1
    quarantined: bool = False
    error: str = ""
    records: List[FaultRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        recorder = _obs_hooks.active()
        if recorder is not None:
            recorder.trial_ledgers.append(self)


class RunLedger:
    """Fault ledger for a whole trial population.

    Filled by :func:`repro.experiments.runner.run_trials` when a fault
    plan is active; rendered by the CLI after the experiment output.
    """

    def __init__(self) -> None:
        self.trials: List[TrialLedger] = []

    def add(self, entry: TrialLedger) -> None:
        self.trials.append(entry)

    @property
    def quarantined(self) -> List[TrialLedger]:
        return [entry for entry in self.trials if entry.quarantined]

    @property
    def retried(self) -> List[TrialLedger]:
        return [entry for entry in self.trials
                if entry.attempts > 1 and not entry.quarantined]

    def site_counts(self) -> Dict[str, int]:
        """The survivor view: last attempts' records plus every
        ``runner`` record, ``retry-backoff`` included (unlike
        ``faults_landed_total``, which counts every attempt)."""
        counts: Dict[str, int] = {}
        for entry in self.trials:
            for record in entry.records:
                counts[record.site] = counts.get(record.site, 0) + 1
        return counts

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        lines = ["Fault ledger"]
        lines.append(
            f"  trials: {len(self.trials)}  retried: {len(self.retried)}  "
            f"quarantined: {len(self.quarantined)}"
        )
        counts = self.site_counts()
        if counts:
            per_site = "  ".join(
                f"{site}={count}" for site, count in sorted(counts.items())
            )
            lines.append(f"  injected by site: {per_site}")
        else:
            lines.append("  injected by site: (none)")
        for entry in self.quarantined:
            lines.append(
                f"  quarantined trial {entry.trial} (seed {entry.seed}) "
                f"after {entry.attempts} attempts: {entry.error}"
            )
        for entry in self.retried:
            lines.append(
                f"  trial {entry.trial} recovered after "
                f"{entry.attempts} attempts"
            )
        return "\n".join(lines)
