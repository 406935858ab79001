"""Adaptive campaign runners for both fault-injection levels.

Each runner builds the same :class:`~repro.campaign.spec.CampaignSpec`
as its fixed-size counterpart and runs it under the sequential-sampling
:class:`~repro.adaptive.controller.AdaptiveController`: each round the
controller plans a batch of whole work units (always a prefix extension
of the fixed seed-indexed plan), the engine executes it with the
controller as ``observer=``, and the loop repeats until every cell
converged, exhausted its fixed plan, or spent the budget.

Because the executed unit set is a prefix of the fixed plan and units
merge in index order, the merged report of an adaptive run is
bit-identical to a fixed-size run truncated at the same unit horizon —
and a journaled adaptive run resumes to the same stop decision: the
engine replays cached units through the observer, so the controller
re-derives every round from the same tallies it saw the first time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from ..campaign.engine import DEFAULT_BATCH_SIZE
from ..campaign.progress import ProgressReporter
from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignError
from .controller import AdaptiveConfig

__all__ = [
    "AdaptiveResult",
    "run_adaptive_campaign",
    "run_adaptive_grid",
    "run_adaptive_pvf_campaign",
]


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive campaign.

    ``reports`` holds one merged report per registered cell (insertion
    order — for the PVF runner that is a single report, exposed as
    :attr:`report`); ``summary`` is the controller's per-cell decision
    record (trials, Wilson interval, units executed vs planned,
    converged/exhausted flags).
    """

    reports: List[Any]
    summary: List[dict] = field(default_factory=list)
    rounds: int = 0

    @property
    def report(self) -> Any:
        """The single report of a one-cell (PVF) campaign."""
        if len(self.reports) != 1:
            raise CampaignError(
                f"campaign has {len(self.reports)} cells, not 1")
        return self.reports[0]

    @property
    def n_injections(self) -> int:
        return sum(r.n_injections for r in self.reports)

    @property
    def converged(self) -> bool:
        """True when every cell stopped on its interval, not its budget."""
        return all(entry["converged"] for entry in self.summary)


def _run_adaptive(spec, config: Optional[AdaptiveConfig],
                  **run) -> AdaptiveResult:
    """Run *spec* under an adaptive controller; merge per cell."""
    controller = spec.controller(config or AdaptiveConfig())
    results = spec.run(adaptive=controller, **run)
    return AdaptiveResult(reports=spec.merge(results),
                          summary=controller.summary(),
                          rounds=controller.rounds)


def run_adaptive_pvf_campaign(
    app,
    model,
    n_injections: int,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> AdaptiveResult:
    """Inject into *app* until the PVF interval converges (or the fixed
    ``n_injections`` plan / the configured budget runs out).

    The unit plan is exactly :func:`run_pvf_campaign`'s for the same
    ``(n_injections, seed, batch_size)`` — the adaptive run executes a
    prefix of it, so its merged report is bit-identical to a fixed-size
    campaign truncated at the same unit horizon.  ``checkpoint`` uses
    the same journal header as the fixed runner; resuming an
    interrupted adaptive campaign replays the journal through the
    controller and reaches the same stop decision.
    """
    from ..swfi.campaign import _SwfiState, pvf_spec

    spec = pvf_spec(app.name, model.name, n_injections,
                    partial(_SwfiState, app, model), seed=seed,
                    batch_size=batch_size, timeout=timeout)
    return _run_adaptive(spec, config, n_jobs=n_jobs, checkpoint=checkpoint,
                         resume=resume, progress=progress, metrics=metrics,
                         cancel=cancel)


def run_adaptive_campaign(
    bench,
    module: str,
    n_faults: int,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    kind: Optional[str] = None,
    n_jobs: int = 1,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    sm_config=None,
    vectorize="auto",
) -> AdaptiveResult:
    """Adaptive single-cell RTL campaign: inject into one
    ``(bench, module)`` cell until its SDC interval converges.

    The unit plan, seeds and journal header are exactly
    :func:`repro.rtl.campaign.run_campaign`'s for the same
    ``(n_faults, seed, batch_size)`` — the adaptive run executes a
    prefix, so its merged report is bit-identical to a fixed campaign
    truncated at the same unit horizon.  ``batch_size`` defaults to
    :data:`DEFAULT_BATCH_SIZE` rather than a single whole-campaign
    unit, for the same reason as :func:`run_adaptive_grid`.
    """
    from ..rtl.campaign import cell_spec

    spec = cell_spec(bench, module, n_faults, seed, kind,
                     batch_size=batch_size, timeout=timeout,
                     config=sm_config, vectorize=vectorize)
    return _run_adaptive(spec, config, n_jobs=n_jobs, checkpoint=checkpoint,
                         resume=resume, progress=progress, metrics=metrics,
                         cancel=cancel)


def run_adaptive_grid(
    opcodes: Optional[Iterable] = None,
    input_ranges: Iterable[str] = ("S", "M", "L"),
    modules: Optional[Sequence[str]] = None,
    n_faults: int = 200,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    sm_config=None,
    vectorize="auto",
    precision: str = "fp32",
) -> AdaptiveResult:
    """Adaptive RTL campaign grid: per-cell sequential sampling.

    Cells, seeds and the unit plan are exactly
    :func:`repro.rtl.campaign.run_grid`'s for the same arguments —
    ``n_faults`` is each cell's *maximum* (fixed-plan) fault count, of
    which the controller executes a prefix.  ``batch_size`` defaults to
    :data:`DEFAULT_BATCH_SIZE` rather than one-unit-per-cell: adaptive
    stopping needs units finer than whole cells to have anything to
    decide between rounds.  Per-cell merged reports are bit-identical
    to a fixed grid truncated at the same unit horizons.
    """
    from ..gpu.isa import CHARACTERIZED_OPCODES
    from ..rtl.campaign import grid_spec

    spec = grid_spec(CHARACTERIZED_OPCODES if opcodes is None else opcodes,
                     input_ranges, modules, n_faults, seed,
                     batch_size=batch_size, timeout=timeout,
                     config=sm_config, vectorize=vectorize,
                     precision=precision)
    return _run_adaptive(spec, config, n_jobs=n_jobs, checkpoint=checkpoint,
                         resume=resume, progress=progress, metrics=metrics,
                         cancel=cancel)
