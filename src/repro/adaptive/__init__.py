"""Adaptive (sequential-sampling) campaign control.

Replaces the paper's fixed-size campaign sizing with per-cell early
stopping on Wilson-interval width plus Neyman-style budget
reallocation, while preserving the repo-wide determinism contract:
an adaptive run executes a prefix of the fixed seed-indexed unit plan,
so its reports are bit-identical to a fixed campaign truncated at the
same unit horizon.
"""

from .controller import (
    STRATEGIES,
    AdaptiveConfig,
    AdaptiveController,
    required_trials,
)
from .runner import (
    AdaptiveResult,
    run_adaptive_campaign,
    run_adaptive_grid,
    run_adaptive_pvf_campaign,
)

__all__ = [
    "STRATEGIES",
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveResult",
    "required_trials",
    "run_adaptive_campaign",
    "run_adaptive_grid",
    "run_adaptive_pvf_campaign",
]
