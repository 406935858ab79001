"""Software fault-injection campaigns and PVF measurement.

The Program Vulnerability Factor (PVF, Sridharan & Kaeli [38]) is the
probability that a fault which already reached a software-visible state
(i.e. an injected instruction-output corruption) propagates to an SDC at
the application output.  The paper reports PVF per application for the
single-bit-flip model and the RTL relative-error syndrome model
(Fig. 10 / Table III), with >= 6000 injections per application and 95%
confidence intervals under 5%.

Campaigns at that size are embarrassingly parallel — every injection
re-runs the whole application — so the runner shards ``n_injections``
into deterministic batches: batch *i* always draws its randomness from
child seed *i* of the campaign seed (:func:`repro.rng.spawn_seed_range`),
no matter whether it executes serially, on one of ``n_jobs`` worker
processes, or in a resumed run.  Merging the per-batch reports in batch
order therefore reproduces the serial report bit for bit.

Pool execution, JSONL checkpoint/resume and the in-order merge are all
owned by the shared level-agnostic engine (:mod:`repro.campaign.engine`,
driven through :class:`~repro.campaign.spec.CampaignSpec`); this module
contributes only the SWFI-specific pieces — the report type, the
per-batch injection loop, the worker state (one
:class:`SoftwareInjector` whose golden+profile pass runs once per
worker) and :func:`pvf_spec`, the campaign's plan and journal header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from ..campaign.checkpoint import CampaignCheckpoint
# ``run_units`` stays a module attribute: perfbench/tracing.py wraps it
# by name, although specs reach the engine through repro.campaign.spec
from ..campaign.engine import (  # noqa: F401
    DEFAULT_BATCH_SIZE,
    WorkUnit,
    plan_batches,
    plan_units,
    run_units,
)
from ..campaign.progress import ProgressReporter
from ..campaign.spec import CampaignSpec, Cell
from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignError
from ..rng import make_rng
from ..rtl.classify import Outcome
from ..analysis.stats import proportion_confidence_interval
from .injector import InjectionResult, SoftwareInjector
from .models import FaultModel

__all__ = [
    "PVFReport",
    "CampaignCheckpoint",
    "plan_batches",
    "pvf_spec",
    "run_pvf_batch",
    "run_pvf_campaign",
]


@dataclass
class PVFReport:
    """Aggregated outcome of one software injection campaign."""

    app_name: str
    model_name: str
    n_injections: int = 0
    n_sdc: int = 0
    n_due: int = 0
    n_masked: int = 0
    per_opcode_sdc: Dict[str, int] = field(default_factory=dict)
    per_opcode_injections: Dict[str, int] = field(default_factory=dict)

    def add(self, result: InjectionResult) -> None:
        self.n_injections += 1
        opcode = result.opcode.value if result.opcode else "none"
        self.per_opcode_injections[opcode] = (
            self.per_opcode_injections.get(opcode, 0) + 1)
        if result.outcome is Outcome.SDC:
            self.n_sdc += 1
            self.per_opcode_sdc[opcode] = (
                self.per_opcode_sdc.get(opcode, 0) + 1)
        elif result.outcome is Outcome.DUE:
            self.n_due += 1
        else:
            self.n_masked += 1

    # -- combination / serialisation ---------------------------------------
    def merge_in(self, other: "PVFReport") -> None:
        """Fold *other*'s tallies into this report (same app and model)."""
        if (other.app_name != self.app_name
                or other.model_name != self.model_name):
            raise CampaignError(
                f"cannot merge report for {other.app_name}/"
                f"{other.model_name} into {self.app_name}/{self.model_name}")
        self.n_injections += other.n_injections
        self.n_sdc += other.n_sdc
        self.n_due += other.n_due
        self.n_masked += other.n_masked
        for opcode, n in other.per_opcode_injections.items():
            self.per_opcode_injections[opcode] = (
                self.per_opcode_injections.get(opcode, 0) + n)
        for opcode, n in other.per_opcode_sdc.items():
            self.per_opcode_sdc[opcode] = (
                self.per_opcode_sdc.get(opcode, 0) + n)

    @classmethod
    def merge(cls, reports: Sequence["PVFReport"]) -> "PVFReport":
        """Combine per-batch reports into one campaign report.

        Merging the batch reports of a sharded campaign *in batch order*
        yields a report bit-identical to the serial run's, because batch
        randomness depends only on the batch index (never on the executing
        worker or completion order).
        """
        reports = list(reports)
        if not reports:
            raise CampaignError("cannot merge an empty report list")
        merged = cls(app_name=reports[0].app_name,
                     model_name=reports[0].model_name)
        for report in reports:
            merged.merge_in(report)
        return merged

    def to_dict(self) -> dict:
        from ..artifacts import dump_body

        return dump_body("pvf-report", self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PVFReport":
        from ..artifacts import load_artifact

        return load_artifact("pvf-report", payload)

    # -- statistics ---------------------------------------------------------
    @property
    def pvf(self) -> float:
        """SDC probability per injected (visible) fault."""
        if self.n_injections == 0:
            return 0.0
        return self.n_sdc / self.n_injections

    @property
    def due_rate(self) -> float:
        if self.n_injections == 0:
            return 0.0
        return self.n_due / self.n_injections

    def confidence_interval(self, confidence: float = 0.95
                            ) -> "tuple[float, float]":
        """CI half-width bounds on the PVF (paper: 95% CI < 5%).

        A zero-injection report yields the uninformative ``(0.0, 1.0)``
        (from :func:`wilson_interval`), which keeps empty campaigns
        (``--injections 0``) renderable and lets adaptive controllers
        treat unwarmed cells without special-casing.
        """
        return proportion_confidence_interval(
            self.n_sdc, self.n_injections, confidence)

    def opcode_pvf(self, opcode: str) -> float:
        injections = self.per_opcode_injections.get(opcode, 0)
        if injections == 0:
            return 0.0
        return self.per_opcode_sdc.get(opcode, 0) / injections


def run_pvf_batch(app, model: FaultModel, size: int, seed: int,
                  injector: Optional[SoftwareInjector] = None,
                  timeout: Optional[float] = None) -> PVFReport:
    """Run one batch of *size* injections from its own child seed."""
    injector = injector or SoftwareInjector(app)
    rng = make_rng(seed)
    report = PVFReport(app_name=app.name, model_name=model.name)
    for _ in range(size):
        report.add(injector.inject_one(model, rng, timeout=timeout))
    return report


# -- engine adapters ---------------------------------------------------------
class _SwfiState:
    """Worker-local state: one injector whose golden pass is amortised.

    ``functools.partial(_SwfiState, app, model)`` is the picklable
    worker-state factory; the golden pass runs on the first injection.
    """

    def __init__(self, app, model: FaultModel,
                 injector: Optional[SoftwareInjector] = None) -> None:
        self.app = app
        self.model = model
        self.injector = injector or SoftwareInjector(app)


def _run_swfi_unit(state: _SwfiState, unit: WorkUnit,
                   timeout: Optional[float] = None) -> PVFReport:
    """Engine unit runner: one batch of software injections."""
    return run_pvf_batch(state.app, state.model, unit.size, unit.seed,
                         injector=state.injector, timeout=timeout)


def pvf_spec(app_name: str, model_name: str, n_injections: int,
             state_factory, *, seed: int = 0,
             batch_size: Optional[int] = None,
             timeout: Optional[float] = None) -> CampaignSpec:
    """The spec of one PVF campaign: see :func:`run_pvf_campaign`.

    Built from names, so the service can plan a job without building
    its application: *state_factory* (picklable) builds the worker
    state — application, fault model and injector — where units run.
    The journal header is shared by every path that runs the spec, so a
    journal written by any of them is resumable by the others.
    """
    label = f"{app_name}/{model_name}"
    header = {
        "app": app_name,
        "model": model_name,
        "seed": int(seed),
        "batch_size": int(DEFAULT_BATCH_SIZE if batch_size is None
                          else batch_size),
        "n_injections": int(n_injections),
    }
    empty = partial(PVFReport, app_name=app_name, model_name=model_name)
    return CampaignSpec(
        cells=[Cell(label, plan_units(n_injections, seed, batch_size),
                    empty)],
        header=header, schema="pvf-report", stage=f"pvf/{label}",
        run_unit=partial(_run_swfi_unit, timeout=timeout),
        state_factory=state_factory)


# -- campaign runner ---------------------------------------------------------
def run_pvf_campaign(app, model: FaultModel, n_injections: int,
                     seed: int = 0,
                     injector: Optional[SoftwareInjector] = None,
                     n_jobs: int = 1,
                     batch_size: Optional[int] = None,
                     timeout: Optional[float] = None,
                     checkpoint: Optional[Union[str, Path]] = None,
                     resume: bool = False,
                     progress: Optional[ProgressReporter] = None,
                     metrics: Optional[CampaignMetrics] = None,
                     cancel: Optional[Callable[[], bool]] = None
                     ) -> PVFReport:
    """Inject *n_injections* faults into *app* under *model*.

    The campaign is sharded into deterministic batches (seed of batch *i*
    = child *i* of *seed*); ``n_jobs > 1`` fans the batches out over
    worker processes, each holding its own :class:`SoftwareInjector` whose
    golden/profile pass runs once per worker.  For a fixed
    ``(seed, batch_size)`` the merged report is bit-identical across any
    ``n_jobs``.  ``checkpoint``/``resume`` journal completed batches to a
    JSONL file and skip them on restart; ``timeout`` bounds each injected
    run's wall-clock seconds, converting runaways into DUEs.  ``metrics``
    collects per-batch telemetry (created automatically for checkpointed
    runs and written next to the journal); ``n_injections=0`` yields an
    empty report.  To inject only until the PVF interval is tight, use
    :func:`repro.adaptive.run_adaptive_pvf_campaign`.
    """
    spec = pvf_spec(app.name, model.name, n_injections,
                    partial(_SwfiState, app, model), seed=seed,
                    batch_size=batch_size, timeout=timeout)
    state = None if injector is None else _SwfiState(app, model, injector)
    results = spec.run(n_jobs=n_jobs, state=state, checkpoint=checkpoint,
                       resume=resume, progress=progress, metrics=metrics,
                       cancel=cancel)
    return spec.merge(results)[0]
