"""MSR file semantics."""

import pytest

from repro.errors import MSRError
from repro.hw.msr import MSR, MsrFile


@pytest.fixture
def msrs():
    return MsrFile()


class TestReadWrite:
    def test_defined_msrs_start_zero(self, msrs):
        for address in MSR:
            assert msrs.read(address) == 0

    def test_write_read_roundtrip(self, msrs):
        msrs.write(MSR.IA32_PERFEVTSEL0, 0x41_00C0)
        assert msrs.read(MSR.IA32_PERFEVTSEL0) == 0x41_00C0

    def test_undefined_read_faults(self, msrs):
        with pytest.raises(MSRError):
            msrs.read(0x9999)

    def test_undefined_write_faults(self, msrs):
        with pytest.raises(MSRError):
            msrs.write(0x9999, 1)

    def test_write_truncates_to_64_bits(self, msrs):
        msrs.write(MSR.IA32_TSC, 1 << 70)
        assert msrs.read(MSR.IA32_TSC) == 0

