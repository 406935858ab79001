"""Level-agnostic campaign engine shared by the RTL and software levels.

``engine`` executes deterministic seed-indexed work units over worker
processes with checkpoint/resume and merge-in-order semantics;
``checkpoint`` is the JSONL journal; ``telemetry`` the per-unit
timing/counter collector behind ``metrics.json``, ``python -m repro
stats`` and the engine's per-unit progress lines (INFO on the
``repro.campaign.engine`` logger); ``pipeline`` chains RTL grid ->
syndrome database -> SWFI PVF into one resumable end-to-end run.
"""

from .checkpoint import CampaignCheckpoint
from .engine import (
    DEFAULT_BATCH_SIZE,
    Mergeable,
    WorkUnit,
    merge_ordered,
    plan_batches,
    plan_units,
    run_units,
)
from .telemetry import (
    CampaignMetrics,
    UnitRecord,
    discover_metrics,
    load_metrics,
    metrics_path_for,
    render_stats,
    validate_metrics,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "CampaignCheckpoint",
    "CampaignMetrics",
    "Mergeable",
    "UnitRecord",
    "WorkUnit",
    "discover_metrics",
    "load_metrics",
    "merge_ordered",
    "metrics_path_for",
    "plan_batches",
    "plan_units",
    "render_stats",
    "run_units",
    "validate_metrics",
]
