"""One campaign path: a spec per job shape, one runner for every run.

A :class:`CampaignSpec` is one campaign — an RTL cell, an RTL or t-MxM
grid, a stuck-at signature campaign or a PVF campaign: its fixed
seed-indexed unit plan grouped into cells, the journal header and
report schema that identify it, and the picklable unit function and
worker-state factory that execute it.  The level modules build specs
from objects (``repro.rtl.campaign.cell_spec``/``grid_spec``/
``tmxm_spec``/``signature_spec``, ``repro.swfi.campaign.pvf_spec``); the
service builds the same specs from a job's normalized parameters.
:meth:`CampaignSpec.run` executes the whole plan (the public ``run_*``
functions), a worker's ``[lo, hi)`` shard, or the prefix an adaptive
controller extends round by round — and every path merges in unit-index
order, so a campaign serialises to the same bytes whichever path ran it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..errors import CampaignError
from .checkpoint import CampaignCheckpoint
from .engine import WorkUnit, merge_ordered, run_units
from .progress import ProgressReporter
from .telemetry import CampaignMetrics, emit_metrics, resolve_metrics

__all__ = ["CampaignSpec", "Cell"]


@dataclass
class Cell:
    """One merge group of a campaign: a grid cell, or the whole campaign.

    ``empty`` builds the cell's report when none of its units ran (a
    zero-fault plan, or an adaptive cell the budget never reached).
    """

    label: str
    units: List[WorkUnit]
    empty: Callable[[], Any]


@dataclass
class CampaignSpec:
    """Everything needed to plan, run, journal and merge one campaign.

    ``schema`` is the artifact kind of one unit's report (and of the
    journal's records); ``stage`` names the telemetry a checkpointed run
    writes when the caller passes no metrics.  ``run_unit`` and
    ``state_factory`` must be picklable for process-pool runs.
    """

    cells: List[Cell]
    header: dict
    schema: str
    stage: str
    run_unit: Callable[[Any, WorkUnit], Any]
    state_factory: Callable[[], Any]

    @functools.cached_property
    def units(self) -> List[WorkUnit]:
        """The whole fixed plan, in unit-index order."""
        return [unit for cell in self.cells for unit in cell.units]

    def merge(self, results: Mapping[int, Any]) -> List[Any]:
        """One report per cell from its units in *results*, index order."""
        return [
            merge_ordered({unit.index: results[unit.index]
                           for unit in cell.units if unit.index in results},
                          empty=cell.empty)
            for cell in self.cells
        ]

    def controller(self, config):
        """An adaptive controller over every cell's fixed plan."""
        from ..adaptive.controller import AdaptiveController

        controller = AdaptiveController(config)
        for cell in self.cells:
            controller.add_cell(cell.label, cell.units)
        return controller

    def journal(self, path: Union[str, Path],
                resume: bool) -> CampaignCheckpoint:
        """This campaign's JSONL journal at *path*."""
        return CampaignCheckpoint(path, self.header, kind=self.schema,
                                  resume=resume)

    def run(self, lo: int = 0, hi: Optional[int] = None, *,
            n_jobs: int = 1,
            state: Any = None,
            checkpoint: Optional[Union[str, Path]] = None,
            resume: bool = False,
            progress: Optional[ProgressReporter] = None,
            metrics: Optional[CampaignMetrics] = None,
            consume: Optional[Callable[[int, Any], None]] = None,
            collect: bool = True,
            cancel: Optional[Callable[[], bool]] = None,
            adaptive=None) -> Dict[int, Any]:
        """Execute units ``[lo, hi)`` of the plan (default: all of them).

        *state* is a prebuilt worker state for a serial run (a shared
        injector); otherwise ``state_factory`` builds one per worker.
        ``checkpoint``/``resume`` journal finished units and replay them;
        ``consume``, ``collect``, ``progress``, ``metrics`` and
        ``cancel`` go to :func:`~repro.campaign.engine.run_units`.  With
        an *adaptive* controller (from :meth:`controller`) the run
        alternates controller rounds with engine runs until the
        controller stops; the controller then holds the decision record.
        Returns ``{unit index: report}``.
        """
        if n_jobs < 1:
            raise CampaignError("n_jobs must be at least 1")
        if n_jobs > 1 and state is not None:
            raise CampaignError(
                "a shared injector cannot be used with parallel workers")
        if checkpoint is None and resume:
            raise CampaignError("resume=True requires a checkpoint path")
        units = self.units
        if hi is not None:
            if not 0 <= lo < hi <= len(units):
                raise CampaignError(
                    f"unit range [{lo}, {hi}) is outside the campaign's "
                    f"{len(units)}-unit plan")
            units = units[lo:hi]
        journal = (None if checkpoint is None
                   else self.journal(checkpoint, resume))
        stage = self.stage if adaptive is None else f"adaptive-{self.stage}"
        metrics = resolve_metrics(metrics, checkpoint, stage)
        if progress is not None and progress.total is None \
                and adaptive is None:
            progress.total = len(units)
        if adaptive is not None and n_jobs == 1 and state is None:
            state = self.state_factory()  # one state for every round
        execute = functools.partial(
            run_units, run_unit=self.run_unit, n_jobs=n_jobs,
            state_factory=self.state_factory, state=state, checkpoint=journal,
            progress=progress, metrics=metrics, consume=consume,
            collect=collect, cancel=cancel)
        try:
            if adaptive is None:
                results = execute(units)
            else:
                results = {}
                while True:
                    round_units = adaptive.next_round()
                    if not round_units:
                        break
                    results.update(execute(round_units,
                                           observer=adaptive.observe))
                    if metrics is not None:
                        metrics.total_units = None  # adaptive: unknowable
        finally:
            if journal is not None:
                journal.close()
        emit_metrics(metrics, checkpoint)
        return results
