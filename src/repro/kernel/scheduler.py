"""Priority round-robin time-sharing scheduler.

A deliberately simple policy: strict ``nice`` priority classes with
FIFO round-robin inside each class and a fixed quantum.  Equal-priority
tasks (the default — every task spawns at nice 0) behave exactly like
plain round-robin.  A higher ``nice`` (lower priority) task only runs
while no lower-nice task is runnable — which is how a de-prioritized
K-LEB controller gets *starved*, triggering the paper's §III buffer
back-pressure safety stop organically.

What matters most for the reproduction is not the pick policy but the
*context-switch path*, because that is where K-LEB's kprobes hook in to
isolate the monitored process's counters (§III, Fig. 3).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.kernel.kprobes import KprobeManager, ProbePoint
from repro.kernel.process import Task, TaskState


class MigrationPolicy:
    """Deterministic, seeded migrate-on-quantum policy.

    At each quantum boundary the owning cluster asks the policy whether
    the task that just exhausted its slice should move, and where.  The
    decision stream is drawn from a dedicated RNG stream so enabling
    migration perturbs nothing else, and repeated same-seed runs make
    identical choices.
    """

    def __init__(self, cores: int, rng, probability: float = 0.25) -> None:
        if cores < 2:
            raise SchedulerError(
                f"migration needs at least two cores, got {cores}")
        if not 0.0 <= probability <= 1.0:
            raise SchedulerError(
                f"migration probability must be in [0, 1], got {probability}")
        self.cores = cores
        self.probability = probability
        self._rng = rng

    def pick_destination(self, cpu: int) -> Optional[int]:
        """Destination cpu for a migration from ``cpu``, or None to stay."""
        if self._rng.random() >= self.probability:
            return None
        # Uniform over the *other* cores, as an offset so the draw count
        # is fixed regardless of source cpu.
        offset = 1 + int(self._rng.integers(0, self.cores - 1))
        return (cpu + offset) % self.cores


class Scheduler:
    """Single-core priority round-robin scheduler with kprobe hooks.

    In an SMP cluster each core owns one Scheduler; ``cpu`` names the
    core and ``migration`` (installed by the cluster) is consulted by
    the kernel at quantum boundaries.  Both default to the single-core
    no-op values so standalone kernels behave exactly as before.
    """

    def __init__(self, quantum_ns: int, kprobes: KprobeManager) -> None:
        if quantum_ns <= 0:
            raise SchedulerError("quantum must be positive")
        self.quantum_ns = quantum_ns
        self.kprobes = kprobes
        self.current: Optional[Task] = None
        self.slice_start = 0
        self.cpu = 0
        # Cluster-installed hook: hook(kernel) -> bool (True = current
        # task was migrated away).  None on single-core kernels.
        self.migration: Optional[Callable] = None
        # Sorted list of (nice, fifo-sequence, task): the head is always
        # the highest-priority, longest-waiting task.
        self._queue: List[Tuple[int, int, Task]] = []
        self._fifo = itertools.count()
        self.context_switches = 0

    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Queue a runnable task behind its priority class."""
        if task.state is not TaskState.RUNNABLE:
            raise SchedulerError(
                f"cannot enqueue pid {task.pid} in state {task.state.value}"
            )
        if any(entry[2] is task for entry in self._queue):
            raise SchedulerError(f"pid {task.pid} already queued")
        entry = (task.nice, next(self._fifo), task)
        # Insertion keeping (nice, seq) order; queues are short.
        index = 0
        while index < len(self._queue) and self._queue[index][:2] < entry[:2]:
            index += 1
        self._queue.insert(index, entry)

    def min_queued_nice(self) -> Optional[int]:
        """Best (lowest) nice value waiting in the queue."""
        if not self._queue:
            return None
        return self._queue[0][0]

    def pick_next(self, now: int) -> Optional[Task]:
        """Dispatch the head of the queue; fires the switch-in probe."""
        if self.current is not None:
            raise SchedulerError("pick_next with a task still running")
        if not self._queue:
            return None
        _, _, task = self._queue.pop(0)
        task.set_state(TaskState.RUNNING)
        self.current = task
        self.slice_start = now
        self.context_switches += 1
        self.kprobes.fire(ProbePoint.SCHED_SWITCH_IN, task)
        return task

    def quantum_expiry(self) -> int:
        """Absolute time at which the current slice ends."""
        if self.current is None:
            raise SchedulerError("no current task")
        return self.slice_start + self.quantum_ns

    def should_preempt(self, now: int) -> bool:
        """Quantum elapsed and an equal-or-better-priority task waits.

        A strictly lower-priority (higher nice) waiter does *not*
        preempt — that is the starvation semantics of priority classes.
        """
        if self.current is None or now < self.quantum_expiry():
            return False
        best = self.min_queued_nice()
        return best is not None and best <= self.current.nice

    def refresh_slice(self, now: int) -> None:
        """Restart the quantum (used when the task is alone on the CPU)."""
        self.slice_start = now

    def deschedule_current(self, new_state: TaskState) -> Task:
        """Take the current task off the CPU; fires the switch-out probe.

        ``new_state`` is RUNNABLE for preemption (the task re-queues),
        SLEEPING for a blocking call, or EXITED for termination.
        """
        task = self.current
        if task is None:
            raise SchedulerError("no current task to deschedule")
        self.kprobes.fire(ProbePoint.SCHED_SWITCH_OUT, task)
        task.set_state(new_state)
        self.current = None
        if new_state is TaskState.RUNNABLE:
            self.enqueue(task)
        return task

    def migrate_current_away(self) -> Task:
        """Take the current task off this CPU for migration.

        Fires the switch-out probe (K-LEB must stop counting here) and
        leaves the task RUNNABLE but *not* locally queued — the cluster
        enqueues it on the destination CPU.
        """
        task = self.current
        if task is None:
            raise SchedulerError("no current task to migrate")
        self.kprobes.fire(ProbePoint.SCHED_SWITCH_OUT, task)
        task.set_state(TaskState.RUNNABLE)
        self.current = None
        return task

    def remove(self, task: Task) -> None:
        """Drop a task from the run queue (e.g. killed while queued)."""
        self._queue = [entry for entry in self._queue
                       if entry[2] is not task]
