"""Software fault injection (the adapted-NVBitFI level of the framework)."""

from .campaign import (
    CampaignCheckpoint,
    PVFReport,
    plan_batches,
    run_pvf_batch,
    run_pvf_campaign,
)
from .injector import AppHangError, InjectionResult, SoftwareInjector
from .models import (
    DoubleBitFlip,
    FaultModel,
    ModuleWeightedSyndrome,
    RelativeErrorSyndrome,
    SingleBitFlip,
)
from .ops import SassOps
from .profiler import GROUPS, InstructionProfile, profile_application
from .tmxm_injector import TmxmInjector, TmxmReport

__all__ = [
    "CampaignCheckpoint",
    "PVFReport",
    "plan_batches",
    "run_pvf_batch",
    "run_pvf_campaign",
    "AppHangError",
    "InjectionResult",
    "SoftwareInjector",
    "DoubleBitFlip",
    "FaultModel",
    "ModuleWeightedSyndrome",
    "RelativeErrorSyndrome",
    "SingleBitFlip",
    "SassOps",
    "GROUPS",
    "InstructionProfile",
    "profile_application",
    "TmxmInjector",
    "TmxmReport",
]
