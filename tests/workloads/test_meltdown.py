"""Meltdown workloads: structure, emergent cache behaviour, recovery."""

import pytest

from repro.experiments.runner import run_monitored
from repro.sim.clock import ms, us
from repro.tools.registry import create_tool
from repro.workloads.base import KIND_CODES, OpKind, TraceBlock
from repro.workloads.meltdown import (
    DEFAULT_SECRET,
    MeltdownAttack,
    SecretPrinter,
)

EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")


class TestStructure:
    def test_flush_reload_round_shape(self):
        attack = MeltdownAttack(secret="A", rounds_per_char=1)
        kinds = attack._flush_reload_round(ord("A")).kinds
        assert (kinds == KIND_CODES[OpKind.FLUSH]).sum() == 256
        # transient access + 256 reloads
        assert (kinds == KIND_CODES[OpKind.LOAD]).sum() == 257

    def test_probe_lines_page_spaced(self):
        attack = MeltdownAttack(secret="A", rounds_per_char=1)
        trace = attack._flush_reload_round(0)
        flush_addresses = trace.addresses[
            trace.kinds == KIND_CODES[OpKind.FLUSH]].tolist()
        assert flush_addresses[1] - flush_addresses[0] == 4096

    def test_transient_access_indexes_by_secret_byte(self):
        attack = MeltdownAttack(secret="A", rounds_per_char=1)
        trace = attack._flush_reload_round(ord("A"))
        # Right after the flushes.
        assert trace.kinds[256] == KIND_CODES[OpKind.LOAD]
        assert trace.addresses[256] == attack.probe_base + ord("A") * 4096

    def test_attack_contains_victim_blocks(self):
        victim_labels = {getattr(block, "label", "")
                         for block in SecretPrinter(secret="AB").blocks()}
        attack_labels = {getattr(block, "label", "")
                         for block in MeltdownAttack(secret="AB",
                                                     rounds_per_char=1).blocks()}
        assert {"print-char-0", "print-char-1"} <= victim_labels
        assert {"print-char-0", "print-char-1"} <= attack_labels

    def test_recovered_secret_after_full_iteration(self):
        attack = MeltdownAttack(secret="HI", rounds_per_char=1)
        list(attack.blocks())
        assert attack.recovered_secret() == "HI"


@pytest.fixture(scope="module")
def monitored_pair():
    """One clean and one attacked run under K-LEB at 100 us."""
    short = DEFAULT_SECRET[:6]
    clean = run_monitored(
        SecretPrinter(secret=short), create_tool("k-leb"),
        events=EVENTS, period_ns=us(100), seed=5,
    )
    attack = run_monitored(
        MeltdownAttack(secret=short, rounds_per_char=25),
        create_tool("k-leb"), events=EVENTS, period_ns=us(100), seed=5,
    )
    return clean, attack


class TestEmergentBehaviour:
    def test_attack_raises_llc_misses(self, monitored_pair):
        clean, attack = monitored_pair
        assert attack.report.totals["LLC_MISSES"] > \
            3 * clean.report.totals["LLC_MISSES"]

    def test_attack_raises_llc_references(self, monitored_pair):
        clean, attack = monitored_pair
        assert attack.report.totals["LLC_REFERENCES"] > \
            2 * clean.report.totals["LLC_REFERENCES"]

    def test_attack_extends_runtime(self, monitored_pair):
        clean, attack = monitored_pair
        assert attack.wall_ns > 2 * clean.wall_ns

    def test_attack_mpki_jump(self, monitored_pair):
        clean, attack = monitored_pair

        def mpki(report):
            return report.totals["LLC_MISSES"] / (
                report.totals["INST_RETIRED"] / 1000.0
            )

        assert mpki(attack.report) > 2.0 * mpki(clean.report)

    def test_kleb_gets_many_samples_at_100us(self, monitored_pair):
        clean, attack = monitored_pair
        assert clean.report.sample_count > 5
        assert attack.report.sample_count > clean.report.sample_count

    def test_victim_runs_under_10ms(self, monitored_pair):
        """Paper: the clean program finishes in <10 ms — the reason
        perf cannot produce a time series for it."""
        clean, _ = monitored_pair
        assert clean.wall_ns < ms(10)

    def test_perf_gets_single_sample_for_victim(self):
        result = run_monitored(
            SecretPrinter(secret=DEFAULT_SECRET[:6]),
            create_tool("perf-stat"),
            events=EVENTS, period_ns=us(100), seed=5,
        )
        assert result.report.period_ns == ms(10)  # clamped
        assert result.report.sample_count <= 1
