"""Exception hierarchy for the two-level fault-injection framework.

The RTL simulator signals Detected Unrecoverable Errors (DUEs) by raising
:class:`GpuHardwareError` subclasses; the campaign controller catches them
and classifies the run, mirroring how the paper's ModelSim controller
detects hangs and crashes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GpuHardwareError",
    "GpuHangError",
    "InvalidProgramCounterError",
    "IllegalInstructionError",
    "MemoryFaultError",
    "RegisterFaultError",
    "ArtifactError",
    "BudgetExceeded",
    "CampaignError",
    "CampaignCancelled",
    "ServiceError",
    "SyndromeDatabaseError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class GpuHardwareError(ReproError):
    """A fault propagated to a hardware-detectable error state (a DUE)."""


class GpuHangError(GpuHardwareError):
    """The watchdog expired: the kernel never terminated."""


class InvalidProgramCounterError(GpuHardwareError):
    """A warp fetched from a PC outside the program."""


class IllegalInstructionError(GpuHardwareError):
    """A control register decoded to an opcode the SM cannot execute."""


class MemoryFaultError(GpuHardwareError):
    """A load or store touched an address outside any allocation."""


class RegisterFaultError(GpuHardwareError):
    """A register-file access used an out-of-range register index."""


class FaultDecayedError(ReproError):
    """The armed transient decayed unconsumed: the run is golden-identical.

    Raised by the SM as an early-abort optimisation; campaign controllers
    classify it as Masked (with ``fault_fired=False``).  Deliberately not
    a :class:`GpuHardwareError` — nothing went wrong in the GPU.
    """


class CampaignError(ReproError):
    """A fault-injection campaign was misconfigured."""


class CampaignCancelled(CampaignError):
    """A campaign was stopped between work units by a cancellation hook.

    Completed units are already journaled when a checkpoint is attached,
    so a cancelled campaign resumes exactly where it stopped.
    """


class ArtifactError(ReproError):
    """An artifact payload failed schema validation, versioning or serde."""


class ServiceError(ReproError):
    """A campaign-service request was invalid or could not be served."""


class BudgetExceeded(ServiceError):
    """A job blew through its wall-clock budget.

    Deliberately a distinct type: schedulers must not mistake a store or
    validation :class:`ServiceError` for "the budget ran out" — only this
    exception means the job's completed units are journaled and a
    requeue will resume it.
    """

    @classmethod
    def for_job(cls, job_id: int, budget: float) -> "BudgetExceeded":
        return cls(f"job {job_id} exceeded its wall-clock budget of "
                   f"{budget:g}s; completed units are journaled — "
                   f"requeue to continue")


class SyndromeDatabaseError(ReproError):
    """The syndrome database is missing, malformed, or lacks an entry."""
