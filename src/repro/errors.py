"""Exception hierarchy for the K-LEB reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one clause while still being able
to distinguish hardware-, kernel-, and tool-level failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Generic failure inside the discrete-event simulation engine."""


class ClockError(SimulationError):
    """An attempt to move the simulated clock backwards or misuse it."""


class HardwareError(ReproError):
    """Base class for errors in the simulated hardware layer."""


class MSRError(HardwareError):
    """Access to an undefined or reserved model-specific register."""


class PMUError(HardwareError):
    """Misconfiguration or misuse of the performance monitoring unit."""


class ScheduleError(PMUError):
    """An event set that cannot be mapped onto legal counters."""


class CacheConfigError(HardwareError):
    """An invalid cache geometry (non power-of-two sets, zero ways, ...)."""


class KernelError(ReproError):
    """Base class for errors in the simulated kernel."""


class ProcessError(KernelError):
    """Invalid process state transition or unknown PID."""


class SchedulerError(KernelError):
    """Scheduler invariant violation."""


class ModuleError(KernelError):
    """Kernel-module loading or lifecycle failure."""


class TransientModuleError(ModuleError):
    """An injected, retryable device failure (fault injection).

    Raised only by fault-injection hooks; callers such as the K-LEB
    controller treat it as transient and retry with backoff.
    """


class SyscallError(KernelError):
    """A simulated system call failed (bad arguments, bad state)."""


class TimerError(KernelError):
    """Invalid timer configuration (e.g. zero or negative period)."""


class WorkloadError(ReproError):
    """Malformed workload definition or block stream misuse."""


class ToolError(ReproError):
    """Base class for monitoring-tool failures."""


class ToolUnsupportedError(ToolError):
    """The tool cannot run in the requested environment.

    Mirrors real-world gates such as LiMiT requiring a patched kernel or
    PAPI requiring the monitored program's source code.
    """


class ExperimentError(ReproError):
    """An experiment was configured or executed incorrectly."""


class FaultError(ReproError):
    """Invalid fault-injection plan or ``--faults`` spec."""


class ControlError(ReproError):
    """Invalid adaptive-control configuration or controller misuse."""


class UsageError(ReproError):
    """A command-line flag combination the CLI rejects."""


class TrialCrashError(ExperimentError):
    """A simulated worker crash injected into a runner trial."""
