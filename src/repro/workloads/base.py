"""Workload intermediate representation.

A *program* is a sequence of **blocks**, the atomic units the simulated
core executes:

* :class:`RateBlock` — ``n`` instructions with a fixed per-instruction
  event mix and CPI.  Supports partial execution, so the scheduler can
  preempt mid-block.  Used for compute-dominated workloads (LINPACK,
  matrix multiply) where cache state does not need to be simulated.
* :class:`TraceBlock` — an explicit memory trace (a :class:`Trace`) replayed
  through the cache hierarchy.  Cache events (LLC references/misses)
  *emerge* from the access pattern.  Used for the Meltdown and Docker
  case studies.
* :class:`SyscallBlock` — the program traps into the kernel.  Used by
  instrumentation-based tools (PAPI, LiMiT) whose counter reads execute
  inside the monitored program, and by programs that sleep or do I/O.

Programs are *factories*: ``program.blocks()`` returns a fresh iterator
each call, so one definition can run many trials and tools can wrap it
with instrumentation without consuming the original.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Union

import numpy as np

from repro.errors import WorkloadError


class OpKind(enum.Enum):
    """Kind of one memory operation in a trace."""

    LOAD = "load"
    STORE = "store"
    FLUSH = "flush"   # clflush — invalidates without access


class MemOp(NamedTuple):
    """One memory operation: a byte address plus operation kind.

    The per-op way to write a trace; :meth:`Trace.from_ops` turns a
    sequence of these (or of plain ``(address, kind)`` pairs) into the
    columns every trace is replayed from.
    """

    address: int
    kind: OpKind = OpKind.LOAD


#: Code of each :class:`OpKind` in a trace's kind column (OpKind order:
#: load 0, store 1, flush 2).
KIND_CODES: Dict[OpKind, int] = {kind: code for code, kind in enumerate(OpKind)}


def _address_column(addresses) -> np.ndarray:
    """``addresses`` as a fresh ``uint64`` column; each must lie in
    ``[0, 2**64)``."""
    if isinstance(addresses, np.ndarray):
        if addresses.ndim != 1 or addresses.dtype.kind not in "iu" or (
                addresses.dtype.kind == "i" and len(addresses)
                and addresses.min() < 0):
            raise WorkloadError(
                "trace addresses must be integers in [0, 2**64)")
        return addresses.astype(np.uint64)
    try:
        return np.array(addresses, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        raise WorkloadError(
            "trace addresses must be integers in [0, 2**64)") from None


class Trace:
    """A memory trace as two columns, in op order: ``addresses``
    (``uint64`` byte addresses) and ``kinds`` (``uint8``
    :data:`KIND_CODES`).

    Builders fill the columns with array arithmetic, so a trace is a
    handful of objects however long it is, not one tuple per op for the
    cyclic collector to track.  The columns are read-only, so one trace
    backs any number of blocks, slices and trials.  ``plans`` holds the
    batch replay plans the core compiles for this trace, one per cache
    geometry (:func:`repro.hw.core._trace_plan`): a plan lives exactly
    as long as its trace.  ``period`` is the length of the round that a
    tile (``round * repeats``) repeats, and 0 for any other trace:
    slicing or ``+`` drops it.  Replay uses it to count a repeated
    Flush+Reload round instead of replaying it.
    """

    __slots__ = ("addresses", "kinds", "plans", "period")

    def __init__(self, addresses, kinds=OpKind.LOAD) -> None:
        """``kinds`` is one :class:`OpKind` for every op, or a column of
        :data:`KIND_CODES` as long as ``addresses``."""
        column = _address_column(addresses)
        if isinstance(kinds, OpKind):
            codes = np.full(len(column), KIND_CODES[kinds], dtype=np.uint8)
        else:
            codes = np.asarray(kinds)
            if codes.shape != column.shape or (len(codes) and (
                    codes.dtype.kind not in "iu" or codes.min() < 0
                    or codes.max() >= len(KIND_CODES))):
                raise WorkloadError(
                    "trace kinds must be one OpKind or a column of "
                    "kind codes, one per address")
            codes = codes.astype(np.uint8)
        self._set_columns(column, codes)

    def _set_columns(self, addresses: np.ndarray, kinds: np.ndarray) -> None:
        addresses.flags.writeable = False
        kinds.flags.writeable = False
        self.addresses = addresses
        self.kinds = kinds
        self.plans: Dict[tuple, object] = {}
        self.period = 0

    @classmethod
    def _of_columns(cls, addresses: np.ndarray,
                    kinds: np.ndarray) -> "Trace":
        """A trace over already-valid columns (no copy, no checks)."""
        trace = cls.__new__(cls)
        trace._set_columns(addresses, kinds)
        return trace

    @classmethod
    def from_ops(cls, ops: Iterable) -> "Trace":
        """The trace of ``(address, kind)`` pairs, such as ``MemOp``s."""
        pairs = list(ops)
        try:
            kinds = [KIND_CODES[kind] for _, kind in pairs]
        except KeyError as error:
            raise WorkloadError(
                f"unknown trace op kind {error.args[0]!r}") from None
        return cls([address for address, _ in pairs],
                   np.array(kinds, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index: slice) -> "Trace":
        """A contiguous sub-trace (views of both columns)."""
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise TypeError("a trace is indexed by contiguous slices only")
        return self._of_columns(self.addresses[index], self.kinds[index])

    def __add__(self, other: "Trace") -> "Trace":
        if not isinstance(other, Trace):
            return NotImplemented
        return self._of_columns(
            np.concatenate((self.addresses, other.addresses)),
            np.concatenate((self.kinds, other.kinds)))

    def __mul__(self, repeats: int) -> "Trace":
        tile = self._of_columns(np.tile(self.addresses, repeats),
                                np.tile(self.kinds, repeats))
        tile.period = self.period or len(self)
        return tile

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (np.array_equal(self.addresses, other.addresses)
                and np.array_equal(self.kinds, other.kinds))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} ops)"


# Events every rate-charged slice produces from its instruction count
# and cycles, appended after a block's rates in the epoch it charges.
IMPLICIT_EVENTS = ("INST_RETIRED", "CORE_CYCLES", "REF_CYCLES")


@dataclass
class RateBlock:
    """``instructions`` instructions with fixed event rates.

    Attributes:
        instructions: total instructions in the block (may be fractional
            after a partial execution).
        rates: per-instruction occurrence rate of each PMU event
            (``INST_RETIRED`` and cycle events are implicit and must not
            appear here).
        cpi: cycles per instruction for this block.
        privilege: ``"user"`` or ``"kernel"`` — ring the block runs in.
        label: phase name, surfaced in time-series analysis.
        event_names: the PMU epoch columns a slice of this block
            charges, ``rates`` keys then :data:`IMPLICIT_EVENTS`;
            derived, not a field (``replace`` recomputes it).
    """

    instructions: float
    rates: Dict[str, float] = field(default_factory=dict)
    cpi: float = 1.0
    privilege: str = "user"
    label: str = ""

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise WorkloadError("RateBlock needs a non-negative instruction count")
        if self.cpi <= 0:
            raise WorkloadError("RateBlock needs a positive CPI")
        for name, rate in self.rates.items():
            if rate < 0:
                raise WorkloadError(f"negative rate for event {name!r}")
        if any(name in self.rates for name in IMPLICIT_EVENTS):
            raise WorkloadError("instruction/cycle events are implicit in RateBlock")
        self.event_names = tuple(self.rates) + IMPLICIT_EVENTS


@dataclass
class TraceBlock:
    """Explicit memory operations replayed through the cache hierarchy.

    Attributes:
        ops: the memory operations, as a :class:`Trace`; any other
            sequence of ``(address, kind)`` pairs is converted once, at
            construction.
        instructions_per_op: non-memory instructions interleaved before
            each op (charged at ``cpi``).
        event_scale: memory instructions folded into each simulated op.
            One op stands for ``event_scale`` real accesses with spatial
            locality: one access is replayed through the cache, the
            other ``event_scale - 1`` hit L1 (same/adjacent line) and
            are charged as ordinary instructions.  LOADS/STORES count
            all of them; cache miss events come only from the simulated
            access — faithful MPKI at a fraction of the trace length.
        cpi: CPI of the interleaved non-memory instructions.
        privilege: ring the block runs in.
        label: phase name.
    """

    ops: Trace
    instructions_per_op: float = 0.0
    event_scale: float = 1.0
    cpi: float = 1.0
    privilege: str = "user"
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.ops, Trace):
            self.ops = Trace.from_ops(self.ops)
        if self.instructions_per_op < 0:
            raise WorkloadError("instructions_per_op must be non-negative")
        if self.event_scale <= 0:
            raise WorkloadError("event_scale must be positive")
        if self.cpi <= 0:
            raise WorkloadError("TraceBlock needs a positive CPI")


@dataclass
class SyscallBlock:
    """The program invokes a system call.

    ``handler`` runs kernel-side when the kernel services the trap; it
    receives the kernel object and the calling task and may return a
    value (stored on the task for tools that care).  ``name`` selects
    the kernel's cost model entry for the call.
    """

    name: str
    handler: Optional[Callable] = None
    label: str = ""


Block = Union[RateBlock, TraceBlock, SyscallBlock]

# Sentinel syscall name for a *user-space probe*: the handler runs but
# no trap cost is charged — models unprivileged instructions observing
# state (LiMiT's rdpmc counter reads, timing checks).
USER_PROBE = "__user_probe__"


def user_probe(handler: Callable, label: str = "user-probe") -> SyscallBlock:
    """A zero-cost callback block (see :data:`USER_PROBE`)."""
    return SyscallBlock(name=USER_PROBE, handler=handler, label=label)


class Program:
    """Base class for workload programs.

    Subclasses override :meth:`blocks` to yield the block sequence and
    may override :attr:`name`.  ``metadata`` carries workload-specific
    ground truth (e.g. total FLOPs for LINPACK) used by analysis code.
    """

    name: str = "program"

    def blocks(self) -> Iterator[Block]:
        raise NotImplementedError

    @property
    def metadata(self) -> Dict[str, float]:
        return {}

    def instrumented(self, inserter: "BlockInserter") -> "Program":
        """A derived program with instrumentation blocks woven in.

        This models source-level instrumentation (PAPI/LiMiT): the tool
        recompiles the program with counter reads at strategic points.
        """
        return _InstrumentedProgram(self, inserter)


class ListProgram(Program):
    """A program defined by a concrete list of block prototypes."""

    def __init__(self, name: str, blocks: Iterable[Block],
                 metadata: Optional[Dict[str, float]] = None) -> None:
        self.name = name
        self._blocks = list(blocks)
        self._metadata = dict(metadata or {})

    def blocks(self) -> Iterator[Block]:
        for block in self._blocks:
            yield _copy_block(block)

    @property
    def metadata(self) -> Dict[str, float]:
        return dict(self._metadata)


class BlockInserter:
    """Strategy deciding where instrumentation blocks go.

    ``every_instructions`` inserts the blocks produced by ``factory``
    each time roughly that many instructions of the original program
    have streamed past (trace ops count as ``instructions_per_op + 1``).
    ``prologue``/``epilogue`` factories run once at program start/end.
    """

    def __init__(self, factory: Callable[[], List[Block]],
                 every_instructions: float,
                 prologue: Optional[Callable[[], List[Block]]] = None,
                 epilogue: Optional[Callable[[], List[Block]]] = None) -> None:
        if every_instructions <= 0:
            raise WorkloadError("insertion interval must be positive")
        self.factory = factory
        self.every_instructions = every_instructions
        self.prologue = prologue
        self.epilogue = epilogue


class _InstrumentedProgram(Program):
    """Weaves instrumentation blocks into a base program."""

    def __init__(self, base: Program, inserter: BlockInserter) -> None:
        self._base = base
        self._inserter = inserter
        self.name = f"{base.name}+instrumented"

    @property
    def metadata(self) -> Dict[str, float]:
        return self._base.metadata

    def blocks(self) -> Iterator[Block]:
        inserter = self._inserter
        if inserter.prologue is not None:
            for block in inserter.prologue():
                yield block
        budget = inserter.every_instructions
        for block in self._base.blocks():
            if isinstance(block, RateBlock):
                remaining = block.instructions
                while remaining > 0:
                    take = min(remaining, budget)
                    if take > 0:
                        yield replace(block, instructions=take,
                                      rates=dict(block.rates))
                    remaining -= take
                    budget -= take
                    if budget <= 0:
                        for inserted in inserter.factory():
                            yield inserted
                        budget = inserter.every_instructions
            elif isinstance(block, TraceBlock):
                per_op = block.instructions_per_op + 1.0
                ops = block.ops
                start = 0
                while start < len(ops):
                    take_ops = max(1, int(budget / per_op))
                    chunk = ops[start:start + take_ops]
                    yield replace(block, ops=chunk)
                    start += len(chunk)
                    budget -= len(chunk) * per_op
                    if budget <= 0:
                        for inserted in inserter.factory():
                            yield inserted
                        budget = inserter.every_instructions
            else:
                yield block
        if inserter.epilogue is not None:
            for block in inserter.epilogue():
                yield block


class BlockCursor:
    """Execution cursor over a program's block stream.

    The simulated core consumes programs through this cursor: it tracks
    the current block and how much of it has already executed, so a
    preempted task resumes exactly where it stopped.
    """

    _EPSILON = 1e-9

    def __init__(self, program: Program) -> None:
        self.program = program
        self._iterator = program.blocks()
        self._current: Optional[Block] = None
        self._op_index = 0
        self.finished = False

    def peek(self) -> Optional[Block]:
        """Current block, fetching the next one if needed; None at end."""
        if self.finished:
            return None
        if self._current is None:
            try:
                self._current = next(self._iterator)
                self._op_index = 0
            except StopIteration:
                self.finished = True
                return None
        return self._current

    def advance(self) -> None:
        """Discard the current block and move to the next."""
        self._current = None
        self._op_index = 0

    # -- RateBlock consumption ----------------------------------------
    def consume_instructions(self, count: float) -> None:
        """Record that ``count`` instructions of the current RateBlock ran."""
        block = self._require(RateBlock)
        if count - block.instructions > self._EPSILON:
            raise WorkloadError(
                f"consumed {count} instructions but only "
                f"{block.instructions} remain in block {block.label!r}"
            )
        block.instructions -= count
        if block.instructions <= self._EPSILON:
            self.advance()

    # -- TraceBlock consumption ---------------------------------------
    @property
    def op_index(self) -> int:
        return self._op_index

    def consume_ops(self, count: int) -> None:
        """Record that ``count`` memory ops of the current TraceBlock ran."""
        block = self._require(TraceBlock)
        if self._op_index + count > len(block.ops):
            raise WorkloadError("consumed more trace ops than remain")
        self._op_index += count
        if self._op_index >= len(block.ops):
            self.advance()

    def _require(self, kind: type) -> Block:
        block = self.peek()
        if not isinstance(block, kind):
            raise WorkloadError(
                f"cursor expected {kind.__name__}, found {type(block).__name__}"
            )
        return block


def _copy_block(block: Block) -> Block:
    """Fresh copy so one prototype list can serve many runs."""
    if isinstance(block, RateBlock):
        return replace(block, rates=dict(block.rates))
    if isinstance(block, TraceBlock):
        return replace(block)
    return replace(block)
