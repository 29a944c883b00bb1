"""The sample series: one fixed-schema type from ring drain to report.

K-LEB logs every sample as one fixed-layout row (paper §III).  Every
tool here does the same: it fixes its row schema when it attaches and
appends cumulative counter rows to a :class:`SampleColumns`.  The
kernel ring drains one, the K-LEB session concatenates the drained
parts, and the writers and the time-series analysis read the typed
columns directly.  A fixed schema per series makes ragged rows (a row
missing an event another row carries) impossible by construction.

This module imports nothing from the kernel or the tools, so the ring
and every tool can share it without an import cycle.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import ToolError


@dataclass(frozen=True)
class Sample:
    """One periodic reading: cumulative counter values at a timestamp."""

    timestamp: int
    values: Dict[str, int]


class SampleColumns(_SequenceABC):
    """A sample series kept in struct-of-arrays form.

    ``timestamps`` plus one ``array('q')`` per event in ``names``.
    Indexing materializes a :class:`Sample` on demand; the hot paths
    (ring drain, CSV/JSON writers, the time-series stacker) use the
    columns and never build a per-sample dict.
    """

    __slots__ = ("names", "timestamps", "columns")

    def __init__(self, names: Iterable[str] = (),
                 timestamps: Optional[array] = None,
                 columns: Optional[Sequence[array]] = None) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        self.timestamps = array("q") if timestamps is None else timestamps
        self.columns = ([array("q") for _ in self.names] if columns is None
                        else list(columns))

    @classmethod
    def from_batches(cls, batches: Sequence["SampleColumns"]
                     ) -> "SampleColumns":
        """Concatenate drained batches that share one schema.

        No batches make an empty series with no columns.
        """
        names = batches[0].names if batches else ()
        series = cls(names)
        for batch in batches:
            if batch.names != names:
                raise ToolError(
                    "cannot concatenate sample batches with different "
                    f"schemas: {names} vs {batch.names}"
                )
            series.timestamps.extend(batch.timestamps)
            for column, part in zip(series.columns, batch.columns):
                column.extend(part)
        return series

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[int, Mapping[str, int]]]
                  ) -> "SampleColumns":
        """Build a series from ``(timestamp, values)`` rows.

        Ragged input (a row missing an event another row carries, as in
        reports written before every tool fixed its schema) is squared
        here: the names are the union of the row keys in first-seen
        order, and a missing value reads 0.
        """
        rows = list(rows)
        names: Dict[str, None] = {}
        for _, values in rows:
            names.update(dict.fromkeys(values))
        series = cls(names)
        for timestamp, values in rows:
            series.append(timestamp,
                          [values.get(name, 0) for name in series.names])
        return series

    def append(self, timestamp: int, values: Sequence[int]) -> None:
        """Append one row given integer values in ``names`` order."""
        if len(values) != len(self.columns):
            raise ToolError(
                f"sample row has {len(values)} values for "
                f"{len(self.columns)} columns {self.names}"
            )
        self.timestamps.append(timestamp)
        for column, value in zip(self.columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        timestamp = self.timestamps[index]  # raises IndexError as a list would
        return Sample(
            timestamp=timestamp,
            values={name: column[index]
                    for name, column in zip(self.names, self.columns)},
        )

    def column(self, name: str) -> array:
        """The values of one event column (KeyError for unknown names)."""
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __eq__(self, other):
        # Value equality, so reports survive dataclass comparison (the
        # parallel-vs-serial determinism gate) and pickling round-trips.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names == other.names
                and self.timestamps == other.timestamps
                and self.columns == other.columns)

    __hash__ = None
