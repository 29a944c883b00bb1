"""Observability: structured tracing, metrics, and profiling hooks.

Three cooperating pieces:

* :mod:`repro.obs.trace` — span/instant tracer on the simulated clock,
  exporting Chrome trace-event JSON (Perfetto-loadable) and JSONL;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with
  Prometheus-text and JSON exporters, merged deterministically across
  ``jobs=N`` workers;
* :mod:`repro.obs.hooks` — the hook-point protocol the instrumented
  hot paths call, with a null recorder installed by default so the
  whole subsystem is a strict no-op until the CLI (or a test) installs
  a live :class:`~repro.obs.hooks.Recorder`;
* :mod:`repro.obs.live` — the streaming half: snapshot bus, Prometheus
  HTTP endpoint, run-health watchdog, and flight recorder, armed with
  the CLI's ``--live [PORT]`` / ``--flight PATH`` flags.

See ``docs/observability.md`` for the span taxonomy and metric
catalogue, ``python -m repro.obs.report`` for a terminal summary of a
recorded trace/metrics pair, and ``python -m repro.obs.top`` for the
live per-trial view of a ``--live`` run.
"""

from repro.obs.hooks import (
    NULL,
    NullRecorder,
    Recorder,
    active,
    install,
    merge_chunk,
    recorder,
    reset,
    trial_capture,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    SIZE_BUCKETS,
    MetricsRegistry,
    ObsError,
    parse_prometheus_text,
)
from repro.obs.trace import TRACKS, Tracer

__all__ = [
    "NULL",
    "NullRecorder",
    "Recorder",
    "active",
    "install",
    "merge_chunk",
    "recorder",
    "reset",
    "trial_capture",
    "LATENCY_BUCKETS_NS",
    "SIZE_BUCKETS",
    "MetricsRegistry",
    "ObsError",
    "parse_prometheus_text",
    "TRACKS",
    "Tracer",
]
