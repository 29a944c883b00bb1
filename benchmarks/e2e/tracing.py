"""Outside-in layer tracing: wrap each layer's public entry points.

The traced run never instruments the simulator's own source.  Instead
:class:`LayerTracer` replaces the public entry points listed in
:data:`LAYERS` with thin wrappers, from this file, before any simulator
object is built.  Each wrapper records one span (entry, start, duration)
in memory and keeps a stack so that a layer's *self* time is its spans'
duration minus the part covered by child spans.  Functions imported by
name into other modules are patched there too, and :meth:`uninstall`
puts every original back.

Instrumentation has a cost, and it lands in two places: inside a span
(the clock reads and the extra call frame) and in the caller's self time
(entering and leaving the wrapper).  :func:`calibrate` measures both on
an empty function, and :meth:`LayerTracer.layer_metrics` subtracts
``calls * inside`` from each entry and ``child_calls * outside`` from
its parent, reporting the removed time as ``trace.instrumentation_share``
so that self times, unattributed time and instrumentation sum to the
traced wall exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Marker set on every wrapper, so a leak is detectable after uninstall.
WRAPPER_MARK = "__e2e_layer_wrapper__"


@dataclass(frozen=True)
class Layer:
    """One simulator layer: the entry points timed and its extra metrics.

    ``targets`` are ``(module, owner, names)``: ``owner`` is a class name,
    ``None`` for module-level functions, or ``"subclasses:<Class>"`` to
    wrap ``names`` wherever a subclass of ``<Class>`` defines them.
    ``names=("*public",)`` wraps every public function ``owner`` defines.
    ``exercised`` names the workloads that must record calls into the
    layer; with ``bypassed`` every other workload must record none.
    """

    name: str
    targets: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...]
    extras: Tuple[str, ...] = ()
    exercised: Tuple[str, ...] = ()
    bypassed: bool = False


# Which end-to-end metric each layer should move, and on which workload,
# is tabled in README.md; ``exercised``/``bypassed`` are the parts of
# that table a traced run checks.
LAYERS: Tuple[Layer, ...] = (
    Layer("sim",
          (("repro.sim.engine", "EventQueue",
            ("schedule", "dispatch_due", "peek_time")),),
          extras=("events_dispatched",),
          exercised=("table2_population",)),
    Layer("hw.core",
          (("repro.hw.core", "Core", ("execute",)),),
          extras=("sim_kinst", "ns_per_kinst"),
          exercised=("meltdown_trace", "smp_migrate")),
    Layer("hw.pmu",
          (("repro.hw.pmu", "Pmu",
            ("accumulate", "accumulate_epoch", "snapshot", "counter_row",
             "write_counter", "program_counter")),),
          extras=("epoch_share",),
          exercised=("meltdown_trace", "mux_adaptive")),
    Layer("hw.uncore",
          (("repro.hw.uncore", "UncorePmu", ("advance_window", "totals")),),
          exercised=("smp_migrate",), bypassed=True),
    Layer("kernel",
          (("repro.kernel.kernel", "Kernel",
            ("run", "run_until_exit", "spawn", "charge_kernel_time",
             "run_interrupt", "sleep_current")),
           ("repro.kernel.scheduler", "Scheduler", ("pick_next",)),
           ("repro.kernel.hrtimer", "HrTimer", ("start", "reprogram"))),
          exercised=("table2_population",)),
    Layer("kernel.ringbuffer",
          (("repro.kernel.ringbuffer", "RingBuffer", ("push", "drain")),
           ("repro.kernel.ringbuffer", "ColumnarRing", ("push_row", "push")),
           ("repro.kernel.ringbuffer", "PerCpuRing", ("push_row", "drain"))),
          extras=("rows_pushed", "rows_drained", "rows_dropped",
                  "push_ns_per_row", "drain_ns_per_row"),
          exercised=("smp_migrate", "mux_adaptive", "meltdown_trace")),
    Layer("kernel.smp",
          (("repro.kernel.smp", "SmpCluster",
            ("__init__", "spawn", "run", "run_until_tasks_exit")),),
          extras=("build_s", "migrations"),
          exercised=("smp_migrate",), bypassed=True),
    Layer("tools",
          (("repro.tools.base", "subclasses:MonitoringTool",
            ("prepare_program", "attach", "attach_cluster")),
           ("repro.tools.base", "subclasses:Session", ("finalize",)),
           ("repro.tools.kleb.module", "KLebModule", ("ioctl", "read"))),
          extras=("finalize_s",),
          exercised=("table2_population", "mux_adaptive")),
    Layer("control",
          (("repro.control.controller", "AdaptiveController", ("observe",)),),
          extras=("observations", "actuations"),
          exercised=("mux_adaptive",), bypassed=True),
    Layer("obs",
          (("repro.obs.hooks", "Recorder", ("*public",)),
           ("repro.obs.trace", "Tracer", ("to_chrome_json",)),
           ("repro.obs.metrics", "MetricsRegistry", ("to_prometheus",))),
          extras=("export_s",),
          exercised=("table2_parallel_obs",), bypassed=True),
    Layer("experiments",
          (("repro.experiments.runner", None,
            ("run_monitored", "run_trials", "summarize_trial",
             "collect_outcomes")),
           ("repro.experiments.parallel", None,
            ("run_trials_parallel", "map_trials"))),
          extras=("pool_wait_s", "summary_kb"),
          exercised=("table2_parallel_obs",)),
)

TRACE_METRICS = ("trace.wall_s", "trace.overhead", "trace.unattributed_share",
                 "trace.instrumentation_share")

_EXPORT_ENTRIES = ("Tracer.to_chrome_json", "MetricsRegistry.to_prometheus")
_POOL_ENTRIES = ("run_trials_parallel", "map_trials")


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names: List[str] = []
    for layer in LAYERS:
        names += [f"{layer.name}.calls", f"{layer.name}.self_s",
                  f"{layer.name}.self_share"]
        names += [f"{layer.name}.{extra}" for extra in layer.extras]
    return names + list(TRACE_METRICS)


@dataclass
class Entry:
    """Accumulated timings of one wrapped entry point."""

    layer: int
    name: str
    calls: int = 0
    self_ns: int = 0        # duration minus child spans (uncorrected)
    inclusive_ns: int = 0   # outermost-of-its-layer durations only
    child_calls: int = 0    # spans opened directly inside this one


@dataclass
class Calibration:
    """Per-call instrumentation cost, in nanoseconds."""

    inside_ns: float   # added to the wrapped span itself
    outside_ns: float  # added to the caller's self time


@dataclass
class LayerTracer:
    """Installs the layer wrappers and accumulates their spans."""

    entries: List[Entry] = field(default_factory=list)
    spans: array = field(default_factory=lambda: array("q"))
    # Extra counters filled by result observers, keyed by metric name.
    counts: Dict[str, float] = field(default_factory=dict)
    top_ns: int = 0
    top_calls: int = 0
    clock: Callable[[], int] = time.perf_counter_ns
    _stack: List[list] = field(default_factory=list)
    _patches: List[Tuple[object, str, object]] = field(default_factory=list)
    _extra_modules: Tuple[str, ...] = ()

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn: Callable, layer: int, name: str,
              observe: Optional[Callable] = None) -> Callable:
        eid = len(self.entries)
        entry = Entry(layer=layer, name=name)
        self.entries.append(entry)
        entries = self.entries
        stack = self._stack
        spans = self.spans
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [eid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry.calls += 1
                entry.self_ns += duration - frame[1]
                spans.extend((eid, start, duration))
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    entries[parent[0]].child_calls += 1
                    outermost = entries[parent[0]].layer != layer
                else:
                    tracer.top_ns += duration
                    tracer.top_calls += 1
                    outermost = True
                if outermost:
                    entry.inclusive_ns += duration
            if observe is not None and outermost:
                observe(tracer.counts, result, args)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, extra_modules: Sequence[str] = ()) -> None:
        """Wrap every entry point in :data:`LAYERS`.

        Module-level functions are also replaced in every module
        (``repro.*`` and ``extra_modules``) that imported them by name.
        Every ``repro`` module is imported first, so no module can pick
        up a wrapper by name after this and keep it past
        :meth:`uninstall`; this also loads every tool and session class
        before the hierarchy is walked.
        """
        if self._patches:
            raise RuntimeError("layer wrappers already installed")
        self._extra_modules = tuple(extra_modules)
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            importlib.import_module(info.name)
        for index, layer in enumerate(LAYERS):
            for module_name, owner_name, names in layer.targets:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    for name in names:
                        original = getattr(module, name)
                        wrapper = self.wrap(original, index, name,
                                             _OBSERVERS.get(name))
                        for other in _importers(original, extra_modules):
                            for attr, value in list(vars(other).items()):
                                if value is original:
                                    self._patch(other, attr, wrapper)
                    continue
                for owner in _owners(module, owner_name):
                    wanted = names
                    if names == ("*public",):
                        wanted = tuple(
                            attr for attr, value in vars(owner).items()
                            if callable(value) and not attr.startswith("_"))
                    for name in wanted:
                        value = owner.__dict__.get(name)
                        if not callable(value):
                            continue
                        qualified = f"{owner.__name__}.{name}"
                        self._patch(owner, name, self.wrap(
                            value, index, qualified,
                            _OBSERVERS.get(qualified)))

    def uninstall(self) -> List[str]:
        """Restore every original; return the names still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if owner.__dict__.get(attr) is not original
        ]
        self._patches.clear()
        return leftovers + leaked_wrappers(self._extra_modules)

    def reset(self) -> None:
        """Forget every span recorded so far (e.g. during set-up)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for entry in self.entries:
            entry.calls = entry.self_ns = entry.inclusive_ns = 0
            entry.child_calls = 0
        del self.spans[:]
        self.counts.clear()
        self.top_ns = self.top_calls = 0

    # -- reporting ------------------------------------------------------
    def corrected_self_ns(self, entry: Entry, cal: Calibration) -> float:
        return (entry.self_ns - entry.calls * cal.inside_ns
                - entry.child_calls * cal.outside_ns)

    def layer_metrics(self, wall_ns: int, cal: Calibration,
                      untraced_wall_s: float,
                      summary_bytes: float) -> Dict[str, float]:
        """Per-layer metrics for one traced pass of ``wall_ns``."""
        per_layer = [dict(calls=0, self_ns=0.0) for _ in LAYERS]
        push_ns = drain_ns = export_ns = pool_ns = finalize_ns = 0.0
        build_ns = 0.0
        for entry in self.entries:
            own = self.corrected_self_ns(entry, cal)
            bucket = per_layer[entry.layer]
            bucket["calls"] += entry.calls
            bucket["self_ns"] += own
            method = entry.name.rsplit(".", 1)[-1]
            if LAYERS[entry.layer].name == "kernel.ringbuffer":
                if method.startswith("push"):
                    push_ns += own
                else:
                    drain_ns += own
            if entry.name in _EXPORT_ENTRIES:
                export_ns += entry.inclusive_ns
            if entry.name in _POOL_ENTRIES:
                pool_ns += own
            if method == "finalize":
                finalize_ns += entry.inclusive_ns
            if entry.name == "SmpCluster.__init__":
                build_ns += entry.inclusive_ns
        counts = self.counts
        wall_s = wall_ns / 1e9
        metrics: Dict[str, float] = {}
        for layer, bucket in zip(LAYERS, per_layer):
            self_s = bucket["self_ns"] / 1e9
            metrics[f"{layer.name}.calls"] = bucket["calls"]
            metrics[f"{layer.name}.self_s"] = self_s
            metrics[f"{layer.name}.self_share"] = self_s / wall_s
        kinst = counts.get("sim_kinst", 0.0)
        pushed = counts.get("rows_pushed", 0)
        dropped = counts.get("rows_dropped", 0)
        drained = counts.get("rows_drained", 0)
        accumulates = counts.get("accumulate", 0) + counts.get("epoch", 0)
        core_self_ns = per_layer[_layer_index("hw.core")]["self_ns"]
        metrics.update({
            "sim.events_dispatched": counts.get("events_dispatched", 0),
            "hw.core.sim_kinst": kinst,
            "hw.core.ns_per_kinst": core_self_ns / kinst if kinst else 0.0,
            "hw.pmu.epoch_share": (counts.get("epoch", 0) / accumulates
                                   if accumulates else 0.0),
            "kernel.ringbuffer.rows_pushed": pushed,
            "kernel.ringbuffer.rows_drained": drained,
            "kernel.ringbuffer.rows_dropped": dropped,
            "kernel.ringbuffer.push_ns_per_row": (
                push_ns / (pushed + dropped) if pushed + dropped else 0.0),
            "kernel.ringbuffer.drain_ns_per_row": (
                drain_ns / drained if drained else 0.0),
            "kernel.smp.build_s": build_ns / 1e9,
            "kernel.smp.migrations": counts.get("migrations", 0),
            "tools.finalize_s": finalize_ns / 1e9,
            "control.observations": counts.get("observations", 0),
            "control.actuations": counts.get("actuations", 0),
            "obs.export_s": export_ns / 1e9,
            "experiments.pool_wait_s": pool_ns / 1e9,
            "experiments.summary_kb": summary_bytes / 1024,
        })
        total_calls = sum(entry.calls for entry in self.entries)
        instrumentation_ns = total_calls * (cal.inside_ns + cal.outside_ns)
        unattributed_ns = (wall_ns - self.top_ns
                           - self.top_calls * cal.outside_ns)
        metrics.update({
            "trace.wall_s": wall_s,
            "trace.overhead": wall_s / untraced_wall_s,
            "trace.unattributed_share": unattributed_ns / wall_ns,
            "trace.instrumentation_share": instrumentation_ns / wall_ns,
        })
        return metrics

    def accounting_error(self, wall_ns: int) -> float:
        """|sum of raw self times + time outside spans - wall| / wall.

        Self times partition the covered time only if every span nested
        properly; this is the check that they did.
        """
        covered = sum(entry.self_ns for entry in self.entries)
        outside = wall_ns - self.top_ns
        return abs(covered + outside - wall_ns) / wall_ns

    def layer_summary(self, wall_ns: int, cal: Calibration) -> List[str]:
        """One line per layer that recorded calls: calls and self time."""
        lines = []
        for index, layer in enumerate(LAYERS):
            entries = [entry for entry in self.entries
                       if entry.layer == index]
            calls = sum(entry.calls for entry in entries)
            if calls:
                self_ns = sum(self.corrected_self_ns(entry, cal)
                              for entry in entries)
                lines.append(f"{layer.name:<18} {calls:>9} calls "
                             f"{self_ns / 1e9:9.4f} s self "
                             f"({self_ns / wall_ns:6.1%})")
        return lines

    def write_chrome_trace(self, path,
                           processes: Sequence[Tuple[str, array]]) -> None:
        """Write span sets as one gzipped Chrome ``trace_event`` file.

        ``processes`` pairs a label with a copy of :attr:`spans`; each
        becomes one process track, its time starting at zero.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[')
            separator = ""
            for pid, (label, spans) in enumerate(processes, start=1):
                out.write(separator + json.dumps(
                    {"name": "process_name", "ph": "M", "pid": pid,
                     "tid": 1, "args": {"name": label}}))
                separator = ","
                origin = min(spans[1::3]) if spans else 0
                for offset in range(0, len(spans), 3):
                    entry = self.entries[spans[offset]]
                    out.write(
                        ',{"name":"%s","cat":"%s","ph":"X","pid":%d,'
                        '"tid":1,"ts":%.3f,"dur":%.3f}' % (
                            entry.name, LAYERS[entry.layer].name, pid,
                            (spans[offset + 1] - origin) / 1e3,
                            spans[offset + 2] / 1e3))
            out.write("]}\n")


def _layer_index(name: str) -> int:
    return next(index for index, layer in enumerate(LAYERS)
                if layer.name == name)


def _owners(module, owner_name: str) -> List[type]:
    if not owner_name.startswith("subclasses:"):
        return [getattr(module, owner_name)]
    root = getattr(module, owner_name.split(":", 1)[1])
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _covered_modules(extra_modules: Sequence[str]) -> List[Tuple[str, object]]:
    """Loaded ``repro`` modules plus ``extra_modules``."""
    return [(name, module) for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or name in extra_modules)]


def _importers(original: Callable, extra_modules: Sequence[str]) -> List:
    return [module for _, module in _covered_modules(extra_modules)
            if any(value is original for value in vars(module).values())]


def leaked_wrappers(extra_modules: Sequence[str] = ()) -> List[str]:
    """Names in loaded ``repro`` (and ``extra_modules``) modules and their
    classes that are still wrapped."""
    leaked = []
    for name, module in _covered_modules(extra_modules):
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                leaked.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                leaked += [f"{name}.{attr}.{method}"
                           for method, member in vars(value).items()
                           if getattr(member, WRAPPER_MARK, False)]
    return leaked


# -- result observers: count work where it happens ------------------------
# Each runs only for the outermost call of its layer, so a nested call
# (PerCpuRing.push_row -> ColumnarRing.push_row) is counted once.
def _count(key: str, amount: Callable) -> Callable:
    def observe(counts, result, args):
        counts[key] = counts.get(key, 0) + amount(result, args)
    return observe


def _ring_push(counts, result, args):
    key = "rows_pushed" if result else "rows_dropped"
    counts[key] = counts.get(key, 0) + 1


def _migrations(counts, result, args):
    counts["migrations"] = counts.get("migrations", 0) + args[0].migrations


def _control(counts, result, args):
    counts["observations"] = counts.get("observations", 0) + 1
    counts["actuations"] = counts.get("actuations", 0) + int(result.changed)


_OBSERVERS: Dict[str, Callable] = {
    "EventQueue.dispatch_due": _count("events_dispatched",
                                      lambda result, args: result),
    "Core.execute": _count("sim_kinst",
                           lambda result, args: result.instructions / 1e3),
    "Pmu.accumulate": _count("accumulate", lambda result, args: 1),
    "Pmu.accumulate_epoch": _count("epoch", lambda result, args: 1),
    "RingBuffer.push": _ring_push,
    "ColumnarRing.push_row": _ring_push,
    "ColumnarRing.push": _ring_push,
    "PerCpuRing.push_row": _ring_push,
    "RingBuffer.drain": _count("rows_drained",
                               lambda result, args: len(result)),
    "PerCpuRing.drain": _count("rows_drained",
                               lambda result, args: len(result)),
    "SmpCluster.run_until_tasks_exit": _migrations,
    "AdaptiveController.observe": _control,
}


# -- calibration ----------------------------------------------------------
def _empty(a, b):
    return None


def calibrate(iterations: int = 50_000, repeats: int = 5) -> Calibration:
    """Measure the per-call cost a wrapper adds, inside and outside a span.

    ``inside``: an empty wrapped call's span minus the bare call's cost.
    ``outside``: the wrapped-call loop's own self time minus an empty
    loop's, per iteration.  Medians over ``repeats`` rounds.
    """
    clock = time.perf_counter_ns
    empty = _empty  # a local, as the wrapper's own reference is
    insides, outsides = [], []
    for _ in range(repeats):
        probe = LayerTracer()
        inner = probe.wrap(_empty, 0, "inner")

        def loop_wrapped(n=iterations, call=inner):
            for _ in range(n):
                call(1, 2)

        outer = probe.wrap(loop_wrapped, 0, "outer")
        start = clock()
        for _ in range(iterations):
            pass
        empty_loop = clock() - start
        start = clock()
        for _ in range(iterations):
            empty(1, 2)
        bare = clock() - start
        outer()
        inner_entry, outer_entry = probe.entries
        call_ns = (bare - empty_loop) / iterations
        insides.append(inner_entry.self_ns / iterations - call_ns)
        outsides.append((outer_entry.self_ns - empty_loop) / iterations)
    return Calibration(inside_ns=statistics.median(insides),
                       outside_ns=statistics.median(outsides))


def expectation_failures(workload: str,
                         metrics: Dict[str, float]) -> List[str]:
    """Layers whose call counts contradict the table's predictions."""
    failures = []
    for layer in LAYERS:
        calls = metrics[f"{layer.name}.calls"]
        if workload in layer.exercised and calls == 0:
            failures.append(f"{layer.name}: no calls on {workload}, "
                            "which should exercise it")
        if layer.bypassed and workload not in layer.exercised and calls:
            failures.append(f"{layer.name}: {calls} calls on {workload}, "
                            "which should bypass it")
    return failures
