"""Trial populations: one order-preserving map over seeded trials.

Every paper artifact (Tables I–III, Figs 4–9, the ablations) is a
population of **independent, seeded** trials — there is no shared state
between trials, so they parallelize perfectly.  :func:`map_trials` is
the one place that runs such a population, serially or over a
``multiprocessing`` pool, with bit-for-bit determinism across worker
counts:

* trial ``i`` is ``fn(i)``, a pure function of its index (seed
  ``base_seed + i``, fault fate ``(plan.seed, i)``);
* values come back in index order regardless of completion order;
* every ``fn(i)`` runs under :func:`repro.obs.hooks.trial_capture`, and
  its obs chunk travels beside the value and merges in index order, so
  trace and metrics exports are byte-identical at any ``jobs`` — this
  is the only place chunks are captured or merged;
* ``jobs=1`` (and any environment without ``fork``, and any call from
  inside a pool worker) runs inline.

The pool uses the ``fork`` start method: workers inherit ``fn`` — and
the program, tool and configs it closes over — by copy-on-write instead
of pickling it, so any trial body the serial path accepts works
unchanged.  Only ``(value, chunk)`` pairs cross the process boundary;
values must be picklable.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.obs import hooks as obs_hooks

logger = logging.getLogger(__name__)


def default_jobs() -> int:
    """Worker count used for ``jobs=None``: one per available core."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int], runs: int) -> int:
    """Effective worker count: ``None`` means every core; clamp to runs.

    Raises :class:`ExperimentError` for a non-positive explicit count.
    Pool workers are daemonic and cannot fork grandchildren, so a call
    from inside a worker resolves to 1 (nested populations run inline).
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1 (or None for all cores), got {jobs}")
    if multiprocessing.current_process().daemon:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(jobs, max(runs, 1))


def _capture(fn: Callable[[int], object],
             index: int) -> Tuple[object, Optional[dict]]:
    """``fn(index)`` under a fresh child recorder, with its obs chunk."""
    with obs_hooks.trial_capture(index) as child:
        value = fn(index)
        return value, (child.chunk() if child is not None else None)


# Set in the parent immediately before the pool forks; workers read it.
_map_fn: Optional[Callable[[int], object]] = None


def _map_one(index: int) -> Tuple[object, Optional[dict]]:
    fn = _map_fn
    assert fn is not None, "worker forked without a map context"
    return _capture(fn, index)


def _merge(captured: Iterable[Tuple[object, Optional[dict]]]) -> List[object]:
    """Values in index order, each trial's chunk merged as it arrives."""
    values: List[object] = []
    for value, chunk in captured:
        obs_hooks.merge_chunk(chunk)
        values.append(value)
    return values


def map_trials(fn: Callable[[int], object], runs: int, *,
               jobs: Optional[int] = None) -> List[object]:
    """Order-preserving map of ``fn`` over ``range(runs)``; see module doc.

    As long as ``fn(i)`` is a pure function of ``i`` — which every
    seeded trial is — any worker count yields a bit-identical,
    index-ordered result list and the same merged obs exports.
    Exceptions raised by ``fn`` propagate to the caller.
    """
    effective = resolve_jobs(jobs, runs)
    if effective <= 1:
        # ``fn`` is called directly, never via ``_map_fn``: an inline
        # population nested in a pool worker would overwrite the global
        # the worker's own trials read.
        return _merge(_capture(fn, index) for index in range(runs))
    global _map_fn
    _map_fn = fn
    started = time.perf_counter()
    try:
        with multiprocessing.get_context("fork").Pool(effective) as pool:
            # chunksize=1 hands each free worker the next trial; ``imap``
            # still yields results in index order, which is merge order.
            values = _merge(pool.imap(_map_one, range(runs), chunksize=1))
    finally:
        _map_fn = None
    logger.info("%d trials over %d workers in %.2fs", runs, effective,
                time.perf_counter() - started)
    return values


def run_trials_parallel(program, tool, runs: int, **kwargs):
    """Former name of :func:`repro.experiments.runner.run_trials`.

    Kept only because the ``benchmarks/e2e`` harness wraps it by name;
    it is deleted at the next change to that harness.
    """
    from repro.experiments.runner import run_trials

    return run_trials(program, tool, runs, **kwargs)
