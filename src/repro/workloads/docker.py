"""Docker engine model (paper §IV-B).

``docker run`` produces a small process tree: the shim process sets up
the container environment, forks the containerized workload, and waits
for it.  K-LEB is pointed at the *shim* PID and must follow the fork to
the actual workload — exactly the multi-PID tracing the paper calls out
("a single application can have multiple PIDs ... trace the process,
and its children").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.sim.clock import ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Task
from repro.workloads.base import Block, Program, RateBlock, SyscallBlock
from repro.workloads.docker_images import (
    DOCKER_IMAGES,
    ContainerWorkload,
    DockerImageProfile,
)

_container_ids = itertools.count(1)


@dataclass
class DockerContainer:
    """Handle to a launched container's process tree."""

    container_id: str
    image: str
    shim_task: "Task"
    _workload_holder: Dict[str, "Task"] = field(default_factory=dict)

    @property
    def workload_task(self) -> Optional["Task"]:
        """The forked container process (None until the fork happens)."""
        return self._workload_holder.get("task")

    @property
    def finished(self) -> bool:
        return not self.shim_task.alive


class _ShimProgram(Program):
    """containerd-shim: set up, fork the workload, wait, tear down."""

    def __init__(self, workload: Program, image: str,
                 holder: Dict[str, "Task"]) -> None:
        self.name = f"containerd-shim-{image}"
        self._workload = workload
        self._image = image
        self._holder = holder

    def blocks(self) -> Iterator[Block]:
        # Namespace/cgroup setup work.
        yield RateBlock(instructions=4e5,
                        rates={"LOADS": 0.30, "STORES": 0.18, "BRANCHES": 0.15},
                        cpi=1.1, label="container-setup")

        def do_fork(kernel: "Kernel", task: "Task") -> int:
            child = kernel.spawn(self._workload,
                                 name=f"{self._image}-main",
                                 ppid=task.pid)
            self._holder["task"] = child
            return child.pid

        yield SyscallBlock("fork", handler=do_fork, label="fork-workload")

        # waitpid loop: poll the child, sleeping between checks.
        status: Dict[str, bool] = {}

        def do_wait(kernel: "Kernel", task: "Task") -> bool:
            child = self._holder.get("task")
            if child is None:
                raise WorkloadError("shim waited before forking")
            if not child.alive:
                status["done"] = True
                return True
            kernel.sleep_current(ms(1))
            return False

        while not status.get("done"):
            yield SyscallBlock("wait", handler=do_wait, label="waitpid")

        yield RateBlock(instructions=1e5,
                        rates={"LOADS": 0.25, "STORES": 0.15, "BRANCHES": 0.12},
                        cpi=1.1, label="container-teardown")


class DockerEngine:
    """Launches containers as process trees on a simulated kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def run_container(self, image: str, iterations: int = 20,
                      seed: int = 0) -> DockerContainer:
        """``docker run image`` — spawn the shim (which forks the workload)."""
        profile = self.image_profile(image)
        container_number = next(_container_ids)
        workload = ContainerWorkload(
            profile,
            iterations=iterations,
            seed=seed,
            # Separate address spaces so containers don't share cache lines.
            address_base=0x2000_0000 + container_number * 0x0800_0000,
        )
        holder: Dict[str, Task] = {}
        shim = self.kernel.spawn(
            _ShimProgram(workload, image, holder),
            name=f"containerd-shim-{image}",
        )
        return DockerContainer(
            container_id=f"c{container_number:04d}",
            image=image,
            shim_task=shim,
            _workload_holder=holder,
        )

    @staticmethod
    def image_profile(image: str) -> DockerImageProfile:
        try:
            return DOCKER_IMAGES[image]
        except KeyError:
            known = ", ".join(sorted(DOCKER_IMAGES))
            raise WorkloadError(
                f"unknown docker image {image!r} (known: {known})"
            ) from None
