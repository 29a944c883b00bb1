"""Model-specific register (MSR) file.

Tools in this reproduction program the PMU the way real drivers do: by
writing event-select and control values into MSRs.  Keeping an explicit
MSR layer (rather than a convenience API on the PMU) preserves the
register-level semantics the paper's tools rely on — e.g. LiMiT's
user-space ``rdpmc`` path versus PAPI's syscall-mediated reads.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.errors import MSRError

_MASK_64 = (1 << 64) - 1


class MSR(enum.IntEnum):
    """Addresses of the MSRs this model implements (Intel layout)."""

    IA32_PMC0 = 0x0C1
    IA32_PMC1 = 0x0C2
    IA32_PMC2 = 0x0C3
    IA32_PMC3 = 0x0C4
    IA32_PERFEVTSEL0 = 0x186
    IA32_PERFEVTSEL1 = 0x187
    IA32_PERFEVTSEL2 = 0x188
    IA32_PERFEVTSEL3 = 0x189
    IA32_FIXED_CTR0 = 0x309
    IA32_FIXED_CTR1 = 0x30A
    IA32_FIXED_CTR2 = 0x30B
    IA32_FIXED_CTR_CTRL = 0x38D
    IA32_PERF_GLOBAL_STATUS = 0x38E
    IA32_PERF_GLOBAL_CTRL = 0x38F
    IA32_PERF_GLOBAL_OVF_CTRL = 0x390
    IA32_TSC = 0x010


# Bit fields inside IA32_PERFEVTSELx.
EVTSEL_EVENT_MASK = 0x00FF
EVTSEL_UMASK_MASK = 0xFF00
EVTSEL_USR = 1 << 16   # count at user privilege
EVTSEL_OS = 1 << 17    # count at kernel privilege
EVTSEL_INT = 1 << 20   # interrupt on overflow
EVTSEL_EN = 1 << 22    # counter enable


class MsrFile:
    """A flat 64-bit register file with defined-address checking.

    Reads of undefined MSRs raise (matching the #GP fault real hardware
    delivers), keeping driver bugs loud in tests.
    """

    def __init__(self) -> None:
        self._regs: Dict[int, int] = {int(address): 0 for address in MSR}
        # Write-generation counter.  Consumers that compile derived
        # state from register contents (the PMU's accumulation plan)
        # cache it keyed on this version and recompile only when some
        # register actually changed.
        self.version = 0

    def read(self, address: int) -> int:
        """``rdmsr`` — read a 64-bit value."""
        try:
            return self._regs[int(address)]
        except KeyError:
            raise MSRError(f"rdmsr of undefined MSR {int(address):#x}") from None

    def write(self, address: int, value: int) -> None:
        """``wrmsr`` — write a 64-bit value (truncated to 64 bits)."""
        key = int(address)
        if key not in self._regs:
            raise MSRError(f"wrmsr to undefined MSR {key:#x}")
        self._regs[key] = int(value) & _MASK_64
        self.version += 1

