"""Set-associative cache hierarchy.

Trace-driven workloads (the Meltdown case study, the Docker image
working sets) replay explicit memory accesses through this model, so
LLC reference/miss counts *emerge* from the access pattern rather than
being scripted.  The model implements:

* three levels (L1D, L2, LLC) of set-associative LRU caches;
* ``clflush`` (needed by the Flush+Reload side channel);
* per-access latency, used by the core to charge execution time;
* the event increments each access produces for the PMU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CacheConfigError


# Hit level of a flush op in a round profile (see
# :meth:`CacheHierarchy.settle`); an access's is its level index, or
# the number of levels for memory.
FLUSHED = -1


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency_cycles: int = 4

    def __post_init__(self) -> None:
        if self.ways <= 0:
            raise CacheConfigError(f"{self.name}: ways must be positive")
        if not _is_power_of_two(self.line_bytes):
            raise CacheConfigError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise CacheConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if not _is_power_of_two(self.num_sets):
            raise CacheConfigError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    hit_level: Optional[str]        # cache level name, or None for memory
    latency_cycles: int
    events: Dict[str, float]        # PMU event increments for this access


class CacheLevel:
    """One set-associative, LRU-replacement cache level."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # One LRU-ordered tag dict per set, allocated on first touch
        # (:meth:`allocate`): most trials never replay a trace, and an
        # i7-920 hierarchy is 8.8k sets.  The list object itself never
        # changes, so hierarchies may hold it in their hot-path
        # descriptors; a cold level is an empty list.
        self._sets: List["OrderedDict[int, bool]"] = []
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        self._tag_shift = self._set_mask.bit_length()
        self.hits = 0
        self.misses = 0
        # Write generation of the sets (as ``MsrFile.version`` is for the
        # PMU): every path that can change which lines a set holds, or
        # their LRU order, bumps it, so an unchanged version witnesses
        # that nothing touched this level in between.
        self.version = 0
        # True once a second hierarchy holds this level (``shared_llc``);
        # a shared level never carries a deferred round prefix.
        self.shared = False
        # The hierarchy whose deferred round prefix (see
        # :meth:`CacheHierarchy.settle`) is not yet applied to these
        # sets, or None.  Every read or write of the sets settles first.
        self.pending: Optional["CacheHierarchy"] = None

    def allocate(self) -> None:
        """Fill the set storage in place, if this level is still cold."""
        if not self._sets:
            self._sets.extend(OrderedDict()
                              for _ in range(self.config.num_sets))

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def lookup(self, address: int) -> bool:
        """Probe for ``address``; on hit, refresh LRU position."""
        if self.pending is not None:
            self.pending.settle()
        self.allocate()
        set_index, tag = self._locate(address)
        entries = self._sets[set_index]
        if tag in entries:
            entries.move_to_end(tag)
            self.hits += 1
            self.version += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int) -> Optional[int]:
        """Install the line for ``address``; return the evicted tag, if any."""
        if self.pending is not None:
            self.pending.settle()
        self.allocate()
        set_index, tag = self._locate(address)
        entries = self._sets[set_index]
        evicted = None
        if tag not in entries and len(entries) >= self.config.ways:
            evicted, _ = entries.popitem(last=False)
        entries[tag] = True
        entries.move_to_end(tag)
        self.version += 1
        return evicted

    def contains(self, address: int) -> bool:
        """Non-perturbing presence check (does not update LRU or stats)."""
        if self.pending is not None:
            self.pending.settle()
        if not self._sets:
            return False
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def release(self) -> None:
        """Free the set storage; the next touch allocates it afresh."""
        if self.pending is not None:
            self.pending.settle()
        self._sets.clear()
        self.version += 1

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently cached (0 while cold)."""
        if self.pending is not None:
            self.pending.settle()
        return sum(len(entries) for entries in self._sets)


@dataclass
class HierarchyStats:
    """Aggregate hit/miss statistics per level."""

    accesses: int = 0
    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    flushes: int = 0
    prefetches: int = 0


class CacheHierarchy:
    """L1D -> L2 -> LLC lookup path with miss fills at every level.

    ``prefetch_next_line=True`` enables a simple next-line hardware
    prefetcher: a demand miss to memory also pulls the *following*
    cache line into every level.  Relevant to the Meltdown case study:
    the public PoC spaces its probe lines one page apart precisely so
    a next-line prefetcher cannot pollute the side channel — line-spaced
    probes would all "hit" after the first reload and leak nothing.
    """

    def __init__(self, levels: List[CacheConfig],
                 memory_latency_cycles: int = 200,
                 prefetch_next_line: bool = False,
                 shared_llc: Optional[CacheLevel] = None) -> None:
        """``shared_llc``: a pre-built :class:`CacheLevel` appended as
        the last level — pass the same object to several hierarchies to
        model cores (or co-located tenants) sharing an LLC.  Its config
        replaces the last entry of ``levels``; with ``shared_llc`` set,
        ``levels`` holds only the private levels."""
        if not levels and shared_llc is None:
            raise CacheConfigError("hierarchy needs at least one level")
        self.levels = [CacheLevel(config) for config in levels]
        if shared_llc is not None:
            if shared_llc.pending is not None:
                shared_llc.pending.settle()
            shared_llc.shared = True
            self.levels.append(shared_llc)
        self.memory_latency_cycles = memory_latency_cycles
        self.prefetch_next_line = prefetch_next_line
        self.stats = HierarchyStats()
        # Pre-seed the stats dicts so the hot paths can use a plain
        # ``+= 1`` instead of get-or-default on every access.
        for level in self.levels:
            self.stats.hits[level.config.name] = 0
            self.stats.misses[level.config.name] = 0
        self.stats.misses["memory"] = 0
        self._llc = self.levels[-1]
        self._line_bytes = self.levels[0].config.line_bytes
        # Flattened per-level geometry for the hot path: probing through
        # these tuples avoids the chain of attribute loads per access.
        # Levels are fixed after construction, and allocation and
        # release change the set lists in place, so neither this nor
        # the view of the set lists that :attr:`cold` reads goes stale.
        self._descriptors = tuple(
            (level, level._line_shift, level._set_mask, level._tag_shift,
             level._sets, level.config.ways, level.config.name)
            for level in self.levels
        )
        self._set_lists = tuple(level._sets for level in self.levels)
        self._num_levels = len(self.levels)
        # The last batch replay slice, as (weakref to its plan, end op
        # index, chain start, the three level versions after it); None
        # when there is none.  See ``repro.hw.core.Core._run_trace_batch``.
        self.chain: Optional[tuple] = None
        # The round prefix that chain's last slice counted but did not
        # write to the sets (see :meth:`settle`); None when there is none.
        self.deferred: Optional[tuple] = None

    @property
    def cold(self) -> bool:
        """True while any level's set storage is unallocated.

        Read off the set lists themselves, so a shared LLC that another
        hierarchy released makes this one cold too.  The first access,
        clflush or trace replay of a cold hierarchy calls :meth:`warm`.
        """
        return not all(self._set_lists)

    def warm(self) -> None:
        """Allocate every level's set storage (a shared LLC once)."""
        for level in self.levels:
            level.allocate()

    def release(self) -> None:
        """Free every level's set storage; stats and geometry stay.

        For the end of a run: the next touch starts from an empty
        cache.  A shared LLC is released for every hierarchy holding
        it, and each of them turns :attr:`cold`.
        """
        for level in self.levels:
            level.release()
        self.chain = None

    def defer(self, record: Optional[tuple]) -> None:
        """Set :attr:`deferred` to ``record`` (None drops it) and point
        every level's ``pending`` at this hierarchy while it is set.

        Only for the batch replay, and only on a hierarchy whose levels
        no other hierarchy holds (no level is ``shared``).
        """
        self.deferred = record
        owner = None if record is None else self
        for level in self.levels:
            level.pending = owner

    def settle(self) -> None:
        """Write the deferred round prefix to the sets, if there is one.

        A batch slice that stops inside a repeated flush-first round
        (``repro.hw.core.Core._run_trace_batch``) counts the round's
        first ops but does not write them: the next slice of its chain
        usually finishes the round, and a whole round leaves the sets as
        it found them.  :attr:`deferred` is then (per-level set-index
        and tag columns of the round, each op's hit level, op count);
        which level an op of such a round hits is the same from any
        starting state, so the hit levels say what each op writes.
        Every other read or write of the sets settles first.  Settling
        adds no statistics (the slice counted them), and it brings the
        sets to the state the chain records, so :attr:`chain` stays
        valid and the versions do not move.
        """
        deferred = self.deferred
        if deferred is None:
            return
        self.defer(None)
        columns, hit_levels, count = deferred
        hit_levels = hit_levels[:count]
        for index, (descriptor, (set_column, tag_column)) in enumerate(
                zip(self._descriptors, columns)):
            sets, ways = descriptor[4], descriptor[5]
            for set_index, tag, hit in zip(set_column[:count],
                                           tag_column[:count], hit_levels):
                entries = sets[set_index]
                if hit == FLUSHED:
                    entries.pop(tag, None)
                elif hit > index:
                    # Missed this level: the line fills it, as MRU.
                    if len(entries) >= ways:
                        entries.popitem(last=False)
                    entries[tag] = True
                elif hit == index:
                    entries.move_to_end(tag)

    def _prefetch(self, address: int) -> None:
        """Fill ``address``'s line into every level (no latency charged
        to the demand access — prefetches overlap with it)."""
        self.stats.prefetches += 1
        for level in self.levels:
            line = address >> level._line_shift
            set_index = line & level._set_mask
            tag = line >> level._tag_shift
            if tag not in level._sets[set_index]:
                level.fill(address)

    @property
    def llc(self) -> CacheLevel:
        """The last-level cache."""
        return self._llc

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform one load/store and return where it hit.

        Event semantics follow the Intel definitions used in the paper:
        ``LLC_REFERENCES`` counts accesses that reach the LLC (i.e. miss
        every earlier level); ``LLC_MISSES`` counts those that also miss
        the LLC.  ``L1D_MISSES``/``L2_MISSES`` count per-level misses.
        """
        if self.deferred is not None:
            self.settle()
        if self.cold:
            self.warm()
        self.stats.accesses += 1
        events: Dict[str, float] = {
            "LOADS" if not is_write else "STORES": 1.0,
        }
        missed_levels: List[CacheLevel] = []
        hit_level: Optional[CacheLevel] = None
        for level in self.levels:
            if level is self._llc:
                events["LLC_REFERENCES"] = 1.0
            if level.lookup(address):
                hit_level = level
                break
            missed_levels.append(level)
            miss_event = _MISS_EVENT.get(level.config.name)
            if miss_event is not None:
                events[miss_event] = 1.0

        if hit_level is not None:
            latency = hit_level.config.hit_latency_cycles
            name: Optional[str] = hit_level.config.name
            self.stats.hits[name] += 1
        else:
            latency = self.memory_latency_cycles
            name = None
            events["LLC_MISSES"] = 1.0
            self.stats.misses["memory"] += 1
        for level in missed_levels:
            level.fill(address)
            self.stats.misses[level.config.name] += 1
        if name is None and self.prefetch_next_line:
            self._prefetch(address + self._line_bytes)
        return AccessResult(hit_level=name, latency_cycles=latency, events=events)

    def access_fast(self, address: int) -> int:
        """Hot-path lookup: returns the hit level index (0-based) or
        ``len(levels)`` for a memory access.

        Semantically identical to :meth:`access` (LRU updates, fills,
        per-level hit/miss counters) but allocates nothing; callers
        accumulate event counts themselves.  Used by the core's trace
        executor where per-access object construction dominates.
        """
        if self.deferred is not None:
            self.settle()
        if self.cold:
            self.warm()
        stats = self.stats
        stats.accesses += 1
        descriptors = self._descriptors
        num_levels = self._num_levels
        hit_index = num_levels
        index = 0
        for level, line_shift, set_mask, tag_shift, sets, _ways, _name in \
                descriptors:
            line = address >> line_shift
            entries = sets[line & set_mask]
            tag = line >> tag_shift
            if tag in entries:
                entries.move_to_end(tag)
                level.hits += 1
                level.version += 1
                hit_index = index
                break
            level.misses += 1
            index += 1
        misses = stats.misses
        if hit_index < num_levels:
            stats.hits[descriptors[hit_index][6]] += 1
        else:
            misses["memory"] += 1
        for level, line_shift, set_mask, tag_shift, sets, ways, name in \
                descriptors[:hit_index]:
            line = address >> line_shift
            entries = sets[line & set_mask]
            # The tag missed this level above, so the containment check
            # in CacheLevel.fill is settled: evict straight away if the
            # set is full, and a fresh insert is already MRU.
            if len(entries) >= ways:
                entries.popitem(last=False)
            entries[line >> tag_shift] = True
            level.version += 1
            misses[name] += 1
        if hit_index == num_levels and self.prefetch_next_line:
            self._prefetch(address + self._line_bytes)
        return hit_index

    def clflush(self, address: int) -> None:
        """Flush one line from every level (the Flush+Reload primitive)."""
        if self.deferred is not None:
            self.settle()
        if self.cold:
            self.warm()
        self.stats.flushes += 1
        for level, line_shift, set_mask, tag_shift, sets, _ways, _name in \
                self._descriptors:
            line = address >> line_shift
            sets[line & set_mask].pop(line >> tag_shift, None)
            level.version += 1

    def contains(self, address: int) -> Optional[str]:
        """Name of the first level holding ``address`` (non-perturbing)."""
        for level in self.levels:
            if level.contains(address):
                return level.config.name
        return None


_MISS_EVENT = {
    "L1D": "L1D_MISSES",
    "L2": "L2_MISSES",
}
