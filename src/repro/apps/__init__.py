"""Online decision-making applications built on K-LEB data.

The paper's introduction motivates high-frequency, low-overhead counter
collection with four application families (§I): malware/anomaly
detection (Demme et al.), online program verification (Bruska et al.),
scheduling techniques (Torres et al.), and dynamic power estimation
(Liu et al.).  The anomaly detector lives in
:mod:`repro.analysis.detection`; this package implements the other
three on top of the monitoring substrate:

* :mod:`repro.apps.power` — counter-driven dynamic power estimation;
* :mod:`repro.apps.verification` — program identity/version
  verification from counter signatures;
* :mod:`repro.apps.colocation` — contention-aware workload co-location
  (the Fig. 5 classification put to work).

Shared-LLC multi-core clusters for true parallel contention studies
live in :mod:`repro.kernel.smp`.
"""

from repro.apps.power import PowerModel, PowerEstimate, estimate_power_series
from repro.apps.verification import (
    SignatureDatabase,
    ProgramSignature,
    VerificationResult,
    signature_from_report,
)
from repro.apps.colocation import (
    ColocationPlan,
    plan_colocation,
)

__all__ = [
    "PowerModel",
    "PowerEstimate",
    "estimate_power_series",
    "SignatureDatabase",
    "ProgramSignature",
    "VerificationResult",
    "signature_from_report",
    "ColocationPlan",
    "plan_colocation",
]
