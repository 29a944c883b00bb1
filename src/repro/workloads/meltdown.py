"""Meltdown case study workloads (paper §IV-C, Figs. 6-7).

Two programs:

* :class:`SecretPrinter` — the benign victim: prints a secret string,
  with a short (<10 ms) runtime and moderate cache traffic
  (paper: 7.52 LLC misses per kilo-instruction on average).
* :class:`MeltdownAttack` — the same program with the Meltdown exploit
  attached: for every secret byte it runs Flush+Reload rounds — flush
  256 probe lines, transiently access the secret-indexed line, then
  reload all probe lines timing each one.  The reloads miss for every
  line except the transiently-touched one, which is exactly the side
  channel — and exactly why LLC references/misses explode (paper:
  27.53 MPKI, with clearly higher LLC counts in Figs. 6-7).

All cache events here are *emergent*: the blocks carry addresses, and
the simulated cache hierarchy decides what misses.  The probe lines are
spaced one page apart as in the public PoC (to defeat the prefetcher).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List

import numpy as np

from repro.workloads.base import (Block, OpKind, Program, RateBlock, Trace,
                                  TraceBlock)

_LINE = 64
_PAGE = 4096

# Victim shape: per secret character, a compute block plus a streaming
# trace.  Stream lines are fresh (LLC misses); a reuse trace revisits
# lines two characters back — far enough to have left L1/L2, close
# enough to still sit in the LLC, producing LLC *references* that are
# not misses.
_VICTIM_INSTR_PER_CHAR = 2.6e5
_VICTIM_STREAM_OPS = 2000
_VICTIM_REUSE_OPS = 1000
_VICTIM_TRACE_IPO = 2.0

# Attack shape: Flush+Reload rounds per character.  The PoC retries
# each byte many times to get a reliable read.
_PROBE_LINES = 256
_ATTACK_ROUNDS_PER_CHAR = 50
_ATTACK_TRACE_IPO = 4.0
_ATTACK_LOGIC_INSTR_PER_CHAR = 1.5e5

DEFAULT_SECRET = "SqueamishOssifrage!!"


# Traces are pure functions of their address parameters, and replay
# never mutates them (the cursor only advances an index), so they are
# built once and shared across blocks() iterations and trials, and the
# batch replay plan each carries is compiled once per process.
@lru_cache(maxsize=None)
def _victim_scan_trace(stream_base: int, index: int) -> Trace:
    """Streaming + reuse trace for victim character ``index``."""
    stream_start = stream_base + index * _VICTIM_STREAM_OPS * _LINE
    trace = Trace(np.arange(stream_start,
                            stream_start + _VICTIM_STREAM_OPS * _LINE, _LINE))
    if index >= 2:
        reuse_start = stream_base + (index - 2) * _VICTIM_STREAM_OPS * _LINE
        trace += Trace(np.arange(reuse_start,
                                 reuse_start + _VICTIM_REUSE_OPS * _LINE,
                                 _LINE))
    return trace


@lru_cache(maxsize=None)
def _flush_reload_round(probe_base: int, stride: int,
                        byte_value: int) -> Trace:
    """One Flush+Reload round: flush all probes, transient access,
    reload all probes (one hit — the leaked byte — 255 misses)."""
    probes = probe_base + np.arange(_PROBE_LINES) * stride
    # Transient out-of-order access: the secret byte indexes the
    # probe array; the architectural exception is suppressed but the
    # cache fill persists — the heart of Meltdown.
    transient = Trace([probe_base + byte_value * stride])
    return Trace(probes, OpKind.FLUSH) + transient + Trace(probes)


# The attack block repeats one Flush+Reload round rounds_per_char times.
@lru_cache(maxsize=None)
def _flush_reload_tile(probe_base: int, stride: int, byte_value: int,
                       repeats: int) -> Trace:
    return _flush_reload_round(probe_base, stride, byte_value) * repeats


class SecretPrinter(Program):
    """The benign victim program: prints ``secret``, one char at a time."""

    def __init__(self, secret: str = DEFAULT_SECRET,
                 stream_base: int = 0x1000_0000) -> None:
        self.name = "secret-printer"
        self.secret = secret
        self.stream_base = stream_base

    @property
    def metadata(self) -> Dict[str, float]:
        return {"secret_length": float(len(self.secret))}

    def _victim_char_blocks(self, index: int) -> Iterator[Block]:
        """Blocks for processing one character (shared with the attack)."""
        yield RateBlock(
            instructions=_VICTIM_INSTR_PER_CHAR,
            rates={
                "LOADS": 0.30,
                "STORES": 0.14,
                "BRANCHES": 0.16,
                "BRANCH_MISSES": 0.003,
            },
            cpi=1.0,
            label=f"print-char-{index}",
        )
        yield TraceBlock(ops=_victim_scan_trace(self.stream_base, index),
                         instructions_per_op=_VICTIM_TRACE_IPO,
                         label=f"buffer-scan-{index}")

    def blocks(self) -> Iterator[Block]:
        yield RateBlock(instructions=5e4,
                        rates={"LOADS": 0.35, "STORES": 0.20, "BRANCHES": 0.12},
                        cpi=1.0, label="startup")
        for index in range(len(self.secret)):
            for block in self._victim_char_blocks(index):
                yield block


class MeltdownAttack(SecretPrinter):
    """The victim with the Meltdown Flush+Reload exploit attached."""

    def __init__(self, secret: str = DEFAULT_SECRET,
                 probe_base: int = 0x4000_0000,
                 rounds_per_char: int = _ATTACK_ROUNDS_PER_CHAR,
                 stream_base: int = 0x1000_0000,
                 probe_stride: int = _PAGE) -> None:
        super().__init__(secret=secret, stream_base=stream_base)
        self.name = "secret-printer+meltdown"
        self.probe_base = probe_base
        self.rounds_per_char = rounds_per_char
        # The PoC spaces probes one page apart to defeat the next-line
        # prefetcher; a naive line-spaced probe array is detectable
        # with the prefetcher enabled (see the prefetcher ablation).
        self.probe_stride = probe_stride
        self._recovered: List[str] = []

    def recovered_secret(self) -> str:
        """Bytes the side channel has leaked so far (fills in as it runs)."""
        return "".join(self._recovered)

    def _flush_reload_round(self, byte_value: int) -> Trace:
        """One Flush+Reload round (see :func:`_flush_reload_round`)."""
        return _flush_reload_round(self.probe_base, self.probe_stride,
                                   byte_value)

    def blocks(self) -> Iterator[Block]:
        self._recovered = []
        yield RateBlock(instructions=8e4,
                        rates={"LOADS": 0.35, "STORES": 0.20, "BRANCHES": 0.12},
                        cpi=1.0, label="attack-setup")
        for index, char in enumerate(self.secret):
            for block in self._victim_char_blocks(index):
                yield block
            # Attack bookkeeping: retry loops, timing comparisons.
            yield RateBlock(
                instructions=_ATTACK_LOGIC_INSTR_PER_CHAR,
                rates={"LOADS": 0.25, "STORES": 0.10, "BRANCHES": 0.22,
                       "BRANCH_MISSES": 0.01},
                cpi=1.0,
                label=f"attack-logic-{index}",
            )
            trace = _flush_reload_tile(self.probe_base, self.probe_stride,
                                       ord(char) & 0xFF, self.rounds_per_char)
            yield TraceBlock(ops=trace, instructions_per_op=_ATTACK_TRACE_IPO,
                             label=f"flush-reload-{index}")
            self._recovered.append(char)
