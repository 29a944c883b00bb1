"""Program identity verification from counter signatures.

The paper cites Bruska et al. ("Verification of OpenSSL version via
hardware performance counters"): a program's per-instruction hardware
event mix is a fingerprint, so a monitored run can be checked against a
database of known-good signatures — catching a swapped library version
or a tampered binary without reading its code.

A signature is the vector of per-kilo-instruction rates of the
monitored events.  Verification computes the relative distance between
the observed signature and each enrolled one; the run is accepted when
the best match is the claimed program within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.tools.base import ToolReport

DEFAULT_TOLERANCE = 0.05   # 5 % mean relative deviation


@dataclass(frozen=True)
class ProgramSignature:
    """Per-kilo-instruction event rates for one known program/version."""

    name: str
    rates_pki: Dict[str, float]

    def distance(self, other: "ProgramSignature") -> float:
        """Mean relative deviation over the common event set."""
        shared = set(self.rates_pki) & set(other.rates_pki)
        if not shared:
            raise ExperimentError(
                f"signatures {self.name!r}/{other.name!r} share no events"
            )
        total = 0.0
        for event in shared:
            mine = self.rates_pki[event]
            theirs = other.rates_pki[event]
            scale = max(abs(mine), abs(theirs))
            total += 0.0 if scale == 0 else abs(mine - theirs) / scale
        return total / len(shared)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one monitored run."""

    accepted: bool
    claimed: str
    best_match: Optional[str]
    distance_to_claimed: float
    best_distance: float
    tolerance: float

    @property
    def impostor(self) -> bool:
        """True when the run matches a *different* enrolled program."""
        return (not self.accepted and self.best_match is not None
                and self.best_match != self.claimed)


def signature_from_report(report: ToolReport, name: str,
                          events: Optional[Sequence[str]] = None
                          ) -> ProgramSignature:
    """Extract a signature from a monitored run's totals."""
    totals = report.totals
    instructions = totals.get("INST_RETIRED", 0.0)
    if instructions <= 0:
        raise ExperimentError("report has no instruction count")
    selected = list(events) if events is not None else [
        event for event in report.events if event in totals
    ]
    if not selected:
        raise ExperimentError("no events available for a signature")
    rates = {
        event: totals[event] / (instructions / 1000.0)
        for event in selected
        if event in totals
    }
    return ProgramSignature(name=name, rates_pki=rates)


class SignatureDatabase:
    """Enrolled signatures and the verification procedure."""

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        if tolerance <= 0:
            raise ExperimentError("tolerance must be positive")
        self.tolerance = tolerance
        self._signatures: Dict[str, ProgramSignature] = {}

    def __len__(self) -> int:
        return len(self._signatures)

    def enroll(self, signature: ProgramSignature) -> None:
        """Add (or replace) a known-good signature."""
        self._signatures[signature.name] = signature

    def enroll_report(self, report: ToolReport, name: str,
                      events: Optional[Sequence[str]] = None) -> None:
        self.enroll(signature_from_report(report, name, events))

    def names(self) -> List[str]:
        return sorted(self._signatures)

    def verify(self, report: ToolReport, claimed: str,
               events: Optional[Sequence[str]] = None) -> VerificationResult:
        """Check a run against its claimed identity.

        Accepted iff the claimed program is enrolled, the observed
        signature is within tolerance of it, and no other enrolled
        program matches strictly better.
        """
        if claimed not in self._signatures:
            raise ExperimentError(f"no enrolled signature for {claimed!r}")
        observed = signature_from_report(report, "observed", events)
        distances: List[Tuple[str, float]] = [
            (name, observed.distance(signature))
            for name, signature in self._signatures.items()
        ]
        distances.sort(key=lambda pair: pair[1])
        best_name, best_distance = distances[0]
        to_claimed = dict(distances)[claimed]
        accepted = best_name == claimed and to_claimed <= self.tolerance
        return VerificationResult(
            accepted=accepted,
            claimed=claimed,
            best_match=best_name,
            distance_to_claimed=to_claimed,
            best_distance=best_distance,
            tolerance=self.tolerance,
        )
