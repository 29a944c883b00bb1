"""Report persistence: JSON round-trip and CSV sample logs.

K-LEB's controller logs samples to the file system (paper §III); this
module is the user-space side of that story: write a
:class:`~repro.tools.base.ToolReport` to disk in the CSV layout the
real tool produces (one row per sample, one column per event) or as a
lossless JSON document, and read either back.  It also loads the
observability artifacts the CLI records (``--trace``/``--metrics``)
for ``python -m repro.obs.report`` and CI artifact checks.
"""

from __future__ import annotations

import csv
import gzip
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ReproError, ToolError
from repro.samples import SampleColumns
from repro.tools.base import ToolReport

_FORMAT_VERSION = 1

PathLike = Union[str, Path]


class ReportIOError(ReproError):
    """Malformed report file or incompatible version."""


def effective_suffix(path: PathLike) -> str:
    """The format-selecting suffix, seeing through a trailing ``.gz``.

    ``trace.jsonl.gz`` → ``.jsonl``; ``metrics.json`` → ``.json``.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return Path(path.stem).suffix
    return path.suffix


def write_artifact_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path``, gzip-compressed for ``*.gz`` paths.

    The gzip stream is written with ``mtime=0`` and no embedded file
    name, so compressed artifacts are as byte-deterministic as the
    plain ones and can be digest-pinned the same way.
    """
    path = Path(path)
    data = text.encode("utf-8")
    if path.suffix == ".gz":
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                               mtime=0) as handle:
                handle.write(data)
    else:
        path.write_bytes(data)


def read_artifact_text(path: PathLike) -> str:
    """Read ``path`` as text, transparently gunzipping ``*.gz`` files.

    A corrupt gzip stream surfaces as :class:`OSError`
    (``gzip.BadGzipFile`` subclasses it), which the artifact loaders
    below already translate into :class:`ReportIOError`.
    """
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return handle.read()
    return path.read_text()


def save_report_json(report: ToolReport, path: PathLike,
                     compact: bool = False) -> None:
    """Write a lossless JSON serialization of ``report``.

    ``compact=True`` drops indentation and inter-token whitespace —
    roughly halves the file for large sample logs, and loads back
    identically.
    """
    samples = report.samples
    sample_docs = [
        {"timestamp": timestamp, "values": dict(zip(samples.names, row))}
        for timestamp, row in zip(samples.timestamps, zip(*samples.columns))
    ]
    document = {
        "format_version": _FORMAT_VERSION,
        "tool": report.tool,
        "events": list(report.events),
        "period_ns": report.period_ns,
        "victim_wall_ns": report.victim_wall_ns,
        "victim_pid": report.victim_pid,
        "totals": dict(report.totals),
        "metadata": dict(report.metadata),
        "samples": sample_docs,
    }
    if report.control is not None:
        # Only adaptive runs carry a control ledger; omitting the key
        # otherwise keeps non-adaptive documents byte-identical to the
        # pre-control format.
        document["control"] = [dict(row) for row in report.control]
    if compact:
        text = json.dumps(document, separators=(",", ":"))
    else:
        text = json.dumps(document, indent=2)
    Path(path).write_text(text)


def load_report_json(path: PathLike) -> ToolReport:
    """Read a report previously written by :func:`save_report_json`.

    Samples load as one :class:`SampleColumns`; a ragged document
    (written before every tool fixed its row schema) is squared by
    :meth:`SampleColumns.from_rows`.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReportIOError(f"cannot read report from {path}: {error}") from error
    version = document.get("format_version")
    if version != _FORMAT_VERSION:
        raise ReportIOError(
            f"unsupported report format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        samples = SampleColumns.from_rows(
            (int(entry["timestamp"]),
             {name: int(value) for name, value in entry["values"].items()})
            for entry in document["samples"]
        )
        return ToolReport(
            tool=document["tool"],
            events=list(document["events"]),
            period_ns=int(document["period_ns"]),
            samples=samples,
            totals={name: float(value)
                    for name, value in document["totals"].items()},
            victim_wall_ns=int(document["victim_wall_ns"]),
            victim_pid=int(document["victim_pid"]),
            metadata={name: float(value)
                      for name, value in document.get("metadata", {}).items()},
            control=document.get("control"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ReportIOError(f"malformed report document: {error}") from error


def save_samples_csv(report: ToolReport, path: PathLike) -> None:
    """Write the sample series as CSV (K-LEB's on-disk log layout).

    Columns: ``timestamp_ns`` followed by the series' event columns in
    sorted order.
    """
    samples = report.samples
    if not samples:
        raise ReportIOError("report has no samples to write")
    columns = sorted(samples.names)
    # One buffered writerows call: the controller can log hundreds of
    # thousands of samples, and per-row writerow round-trips through
    # the csv module dominate the write otherwise.
    with open(path, "w", newline="", buffering=1 << 16) as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp_ns"] + columns)
        writer.writerows(zip(samples.timestamps,
                             *(samples.column(name) for name in columns)))


def load_samples_csv(path: PathLike) -> SampleColumns:
    """Read a CSV sample log back into a :class:`SampleColumns`."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[0] != "timestamp_ns":
                raise ReportIOError(f"{path}: not a sample log (bad header)")
            samples = SampleColumns(header[1:])
            for row in reader:
                samples.append(int(row[0]), [int(value) for value in row[1:]])
            return samples
    except OSError as error:
        raise ReportIOError(f"cannot read {path}: {error}") from error
    except (ToolError, ValueError) as error:
        raise ReportIOError(f"{path}: malformed sample row: {error}") from error


def load_trace_events(path: PathLike) -> List[Dict[str, object]]:
    """Read trace events from a Chrome-trace or JSONL file.

    Accepts both formats the tracer writes: the Perfetto document
    (``{"traceEvents": [...]}`` — metadata ``M`` events included) and
    JSONL (one event object per line), plain or gzipped (``.gz``).
    """
    try:
        text = read_artifact_text(path)
    except OSError as error:
        raise ReportIOError(f"cannot read trace from {path}: {error}") from error
    try:
        if effective_suffix(path) == ".jsonl":
            return [json.loads(line) for line in text.splitlines() if line]
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReportIOError(f"{path}: malformed trace: {error}") from error
    events = document.get("traceEvents") if isinstance(document, dict) \
        else document
    if not isinstance(events, list):
        raise ReportIOError(f"{path}: not a trace-event document")
    return events


def load_metrics(path: PathLike) -> Dict[str, Dict[str, object]]:
    """Read a metrics file (Prometheus text or the JSON document,
    plain or gzipped) into the ``{name: {kind, samples}}`` shape of
    :func:`repro.obs.metrics.parse_prometheus_text`."""
    from repro.obs.metrics import MetricsRegistry, parse_prometheus_text

    try:
        text = read_artifact_text(path)
    except OSError as error:
        raise ReportIOError(f"cannot read metrics from {path}: {error}") from error
    if effective_suffix(path) == ".json":
        try:
            registry = MetricsRegistry.from_json(json.loads(text))
        except (json.JSONDecodeError, ReproError) as error:
            raise ReportIOError(f"{path}: malformed metrics: {error}") from error
        return parse_prometheus_text(registry.to_prometheus())
    try:
        return parse_prometheus_text(text)
    except ReproError as error:
        raise ReportIOError(f"{path}: malformed metrics: {error}") from error
