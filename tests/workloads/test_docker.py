"""Docker engine and image profiles: process trees, MPKI classes."""

import pytest

from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.hw.presets import i7_920
from repro.kernel.kernel import Kernel
from repro.kernel.process import TaskState
from repro.sim.clock import ms, seconds
from repro.sim.rng import RngStreams
from repro.tools.kleb import KLebTool
from repro.workloads.docker import DockerEngine
from repro.workloads.docker_images import (
    DOCKER_IMAGES,
    ContainerWorkload,
    DockerImageProfile,
)

EVENTS = ("LLC_REFERENCES", "LLC_MISSES", "LOADS", "STORES")


def fresh_kernel(seed=0):
    return Kernel(Machine(i7_920()), rng=RngStreams(seed))


class TestImageCatalogue:
    def test_paper_images_present(self):
        for image in ("python", "golang", "ruby", "mysql", "traefik",
                      "ghost", "apache", "nginx", "tomcat"):
            assert image in DOCKER_IMAGES

    def test_categories_match_paper_classes(self):
        for profile in DOCKER_IMAGES.values():
            if profile.category == "webserver":
                assert profile.target_mpki > 10
            else:
                assert profile.target_mpki < 10

    def test_interpreters_below_one(self):
        for image in ("python", "golang", "ruby"):
            assert DOCKER_IMAGES[image].target_mpki < 1

    def test_unknown_image_rejected(self):
        with pytest.raises(WorkloadError):
            DockerEngine.image_profile("windows-xp")



class TestContainerWorkload:
    def test_blocks_alternate_compute_and_memory(self):
        workload = ContainerWorkload(DOCKER_IMAGES["python"], iterations=3)
        labels = [getattr(block, "label", "") for block in workload.blocks()]
        assert labels == [
            "service-0", "memory-0",
            "service-1", "memory-1",
            "service-2", "memory-2",
        ]

    def test_stream_addresses_are_fresh_each_iteration(self):
        workload = ContainerWorkload(DOCKER_IMAGES["nginx"], iterations=2)
        blocks = [block for block in workload.blocks()
                  if getattr(block, "label", "").startswith("memory")]
        first = set(blocks[0].ops.addresses.tolist())
        second = set(blocks[1].ops.addresses.tolist())
        # Reuse ops revisit the first iteration's stream, but the new
        # stream lines must be distinct.
        profile = DOCKER_IMAGES["nginx"]
        fresh_second = list(second - first)
        assert len(fresh_second) >= profile.stream_ops


class TestProcessTree:
    def test_shim_forks_workload_child(self):
        kernel = fresh_kernel()
        engine = DockerEngine(kernel)
        container = engine.run_container("python", iterations=2)
        assert container.workload_task is None  # fork hasn't happened yet
        kernel.run_until_exit(container.shim_task, deadline=seconds(30))
        child = container.workload_task
        assert child is not None
        assert child.ppid == container.shim_task.pid
        assert child.state is TaskState.EXITED
        assert container.finished

    def test_container_ids_unique(self):
        kernel = fresh_kernel()
        engine = DockerEngine(kernel)
        a = engine.run_container("python", iterations=1)
        b = engine.run_container("golang", iterations=1)
        assert a.container_id != b.container_id


class TestKlebOnContainers:
    """The paper's §IV-B: attach K-LEB to the container's PID and let
    fork-following capture the actual workload."""

    @staticmethod
    def _mpki_for(image, seed=0, iterations=6):
        kernel = fresh_kernel(seed)
        engine = DockerEngine(kernel)
        container = engine.run_container(image, iterations=iterations,
                                         seed=seed)
        session = KLebTool().attach(kernel, container.shim_task, EVENTS,
                                    ms(1))
        kernel.run_until_exit(container.shim_task, deadline=seconds(60))
        totals = session.finalize().totals
        return totals["LLC_MISSES"] / (totals["INST_RETIRED"] / 1000.0)

    def test_interpreter_class(self):
        assert self._mpki_for("python") < 10

    def test_webserver_class(self):
        assert self._mpki_for("nginx") > 10

    def test_middleware_in_between(self):
        mpki = self._mpki_for("mysql")
        assert 1 < mpki < 10

    def test_child_counts_attributed_to_root(self):
        """Counts come from the forked workload, not the idle shim."""
        kernel = fresh_kernel()
        engine = DockerEngine(kernel)
        container = engine.run_container("python", iterations=4)
        session = KLebTool().attach(kernel, container.shim_task, EVENTS,
                                    ms(1))
        kernel.run_until_exit(container.shim_task, deadline=seconds(60))
        totals = session.finalize().totals
        # The shim alone executes ~5e5 instructions; the workload runs
        # millions — tracing must have followed the fork.
        assert totals["INST_RETIRED"] > 3e6
