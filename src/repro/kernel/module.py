"""Loadable kernel module framework.

K-LEB's deployment story (§I, §III): it is a *module*, so it can be
loaded into an already-running kernel — unlike LiMiT, which requires a
kernel patch and a reboot.  Modules get a load callback and an
``ioctl`` entry point the user-space controller talks through.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ModuleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel


class KernelModule:
    """Base class for loadable modules."""

    name = "module"

    def __init__(self) -> None:
        self._kernel: Optional["Kernel"] = None

    @property
    def kernel(self) -> "Kernel":
        if self._kernel is None:
            raise ModuleError(f"module {self.name!r} is not loaded")
        return self._kernel

    # -- lifecycle ------------------------------------------------------
    def on_load(self, kernel: "Kernel") -> None:
        """Called by the kernel at insmod time.  Override to set up."""

    # -- user-space interface -------------------------------------------
    def ioctl(self, command: str, argument: object = None) -> object:
        """Handle a controller request.  Override in subclasses."""
        raise ModuleError(f"module {self.name!r} has no ioctl {command!r}")

    def read(self, max_items: Optional[int] = None) -> object:
        """Handle a read() from the module's device node.  Override."""
        raise ModuleError(f"module {self.name!r} does not support read")

    # -- internal hooks used by the kernel --------------------------------
    def _attach(self, kernel: "Kernel") -> None:
        if self._kernel is not None:
            raise ModuleError(f"module {self.name!r} already loaded")
        self._kernel = kernel
        self.on_load(kernel)
