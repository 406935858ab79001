"""Scheduler: the daemon's maintenance loop, pipeline runner and shards.

Every pvf/rtl job, on any daemon, runs through the shard protocol: a
worker claims units ``[lo, hi)`` of the job's seed-indexed plan
(:func:`plan_job_units`), runs them with :func:`run_job_units` and
delivers the unit reports, which the daemon journals and — once every
shard is in — merges with :func:`finalize_sharded_job`.  A daemon that
executes jobs itself does so through one more
:class:`~repro.service.worker.CampaignWorker`, on a thread of its own
(:class:`~repro.service.api.ServiceDaemon`).

The :class:`Scheduler` thread keeps the rest.  Every pass it reaps
expired shard leases, fails sharded jobs past their ``budget``, settles
cancelled ones and finalizes fully delivered ones; on an executing
daemon it also runs pipeline jobs — multi-stage, never sharded — whole,
one at a time (:func:`execute_job`), polling the job's cancellation
flag and budget between work units.

Each job owns a directory (``<workdir>/jobs/<id>/``) holding its
campaign journal, ``metrics.json`` telemetry and final ``report.json``.
A job's report is bit-identical to the direct ``python -m repro`` run
for the same parameters: its units are the ones the campaign spec runs
in-process, journaled per delivered shard and merged in index order,
however many workers shared them and however often a daemon died.
"""

from __future__ import annotations

import json
import logging
import math
import sqlite3
import threading
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from ..campaign.checkpoint import CampaignCheckpoint
from ..campaign.telemetry import CampaignMetrics
from ..errors import BudgetExceeded, CampaignCancelled, ServiceError
from .store import Job, JobStore

__all__ = ["JOB_KINDS", "Scheduler", "execute_job",
           "finalize_sharded_job", "job_spec", "normalize_params",
           "plan_job_units", "run_job_units"]

_log = logging.getLogger(__name__)

#: The campaign shapes the service runs.
JOB_KINDS = ("pvf", "rtl", "pipeline")

#: Seconds between a pipeline's ``cancel_requested`` polls of the store;
#: between polls the cached answer is reused, keeping the per-unit
#: overhead off the SQLite file.
_CANCEL_POLL_SECONDS = 0.25

#: Ceiling on the retry backoff after a transient store error (e.g.
#: SQLite "database is locked" under heavy worker contention).
_MAX_BACKOFF_SECONDS = 10.0

#: Service model keys -> the fault-model names reports carry.
_MODEL_NAMES = {"bitflip": "single-bit-flip", "syndrome": "relative-error"}


# -- parameter validation -----------------------------------------------------
def _require_int(params: dict, key: str, default: Optional[int],
                 minimum: int = 0) -> Optional[int]:
    value = params.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"parameter {key!r} must be an integer")
    if value < minimum:
        raise ServiceError(f"parameter {key!r} must be >= {minimum}")
    return value


def _require_number(params: dict, key: str) -> Optional[float]:
    value = params.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"parameter {key!r} must be a number")
    if value <= 0:
        raise ServiceError(f"parameter {key!r} must be positive")
    return float(value)


def _canonical_app(name, factories) -> str:
    match = {key.lower(): key for key in factories}.get(
        str(name).lower())
    if match is None:
        raise ServiceError(
            f"unknown application {name!r}; "
            f"choose from {sorted(factories)}")
    return match


_COMMON_KEYS = {"seed", "jobs", "batch_size", "budget", "precision"}
#: pvf/rtl jobs are claimed in unit shards by workers;
#: ``units_per_claim`` caps how many units one claim hands out, and the
#: adaptive trio (``target_ci``/``strategy``/``min_per_cell``) switches
#: the job to sequential sampling over a moving unit horizon.
_KIND_KEYS = {
    "pvf": _COMMON_KEYS | {"app", "model", "injections",
                           "units_per_claim", "target_ci", "strategy",
                           "min_per_cell"},
    "rtl": _COMMON_KEYS | {"opcode", "module", "range", "faults",
                           "units_per_claim", "target_ci", "strategy",
                           "min_per_cell", "fault_model", "apps",
                           "burst_width", "burst_window"},
    "pipeline": _COMMON_KEYS | {"apps", "models", "opcodes",
                                "grid_faults", "tmxm_faults",
                                "injections"},
}

_PRECISIONS = ("fp32", "fp16", "bf16")


def _require_precision(params: dict) -> str:
    value = params.get("precision", "fp32")
    if value not in _PRECISIONS:
        raise ServiceError(
            f"unknown float precision {value!r}; "
            f"choose from {_PRECISIONS}")
    return value


def _check_app_precision(app: str, precision: str, factories) -> None:
    """Reject fp32-only apps at submit time, not hours into the job."""
    if precision == "fp32":
        return
    import inspect

    if "precision" not in inspect.signature(factories[app]).parameters:
        raise ServiceError(
            f"application {app!r} runs fp32 only; "
            f"precision={precision!r} is not supported")


def _require_adaptive(params: dict) -> Dict:
    """Validate the adaptive (sequential-sampling) parameter trio."""
    from ..adaptive import STRATEGIES

    target_ci = _require_number(params, "target_ci")
    if target_ci is not None and target_ci >= 1.0:
        raise ServiceError("parameter 'target_ci' must be in (0, 1)")
    strategy = params.get("strategy")
    if strategy is not None and strategy not in STRATEGIES:
        raise ServiceError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    min_per_cell = _require_int(params, "min_per_cell", None, minimum=1)
    if target_ci is None and (strategy is not None
                              or min_per_cell is not None):
        raise ServiceError(
            "parameters 'strategy'/'min_per_cell' require 'target_ci'")
    return {"target_ci": target_ci, "strategy": strategy,
            "min_per_cell": min_per_cell}


def _require_rtl_fault_model(params: dict) -> Dict:
    """Validate an RTL job's fault-model parameter block.

    ``apps`` (the signature campaign's application suite) is only
    meaningful for stuck-at jobs, and the burst geometry only for burst
    jobs — anything else is a 400 at submit, not a confusing no-op.
    """
    from ..gpu.fault_plane import FAULT_MODELS

    fault_model = params.get("fault_model", "transient")
    if fault_model not in FAULT_MODELS:
        raise ServiceError(
            f"unknown fault model {fault_model!r}; "
            f"choose from {sorted(FAULT_MODELS)}")
    apps = params.get("apps")
    if apps is not None:
        if fault_model != "stuck-at":
            raise ServiceError(
                "parameter 'apps' only applies to stuck-at signature "
                "campaigns")
        if not isinstance(apps, list) or not apps:
            raise ServiceError("parameter 'apps' must be a non-empty list")
        apps = [str(app) for app in apps]
    burst_width = _require_int(params, "burst_width", None, minimum=1)
    burst_window = _require_int(params, "burst_window", None, minimum=0)
    if fault_model != "burst" and (burst_width is not None
                                   or burst_window is not None):
        raise ServiceError(
            "parameters 'burst_width'/'burst_window' only apply to "
            "burst campaigns")
    return {
        "fault_model": fault_model,
        "apps": apps,
        "burst_width": 4 if burst_width is None else burst_width,
        "burst_window": 4 if burst_window is None else burst_window,
    }


def _check_rtl_workload(params: dict) -> None:
    """Reject an rtl job whose workload leaves its module idle.

    Checked once at submit, so every later spec build — on a claim, a
    delivery, a finalize — plans a job known to be runnable.
    """
    from ..errors import CampaignError
    from ..rtl.campaign import check_signature_suite

    try:
        job_spec("rtl", params)
        if params["fault_model"] == "stuck-at":
            check_signature_suite(params["module"], params["apps"])
    except CampaignError as exc:
        raise ServiceError(str(exc)) from None


def normalize_params(kind: str, params: Optional[dict]) -> dict:
    """Validate a submission and fill in defaults.

    Runs at submit time — a bad app name or an empty pvf/rtl campaign
    (no injections or faults) is a 400 at the API, not a ``failed`` job
    hours later.  Returns the normalized parameter dict that is stored
    with the job.
    """
    from ..apps import APP_FACTORIES
    from ..gpu.isa import Opcode
    from ..rtl.campaign import MODULE_INSTRUCTIONS

    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
    params = dict(params or {})
    unknown = set(params) - _KIND_KEYS[kind]
    if unknown:
        raise ServiceError(
            f"unknown parameter(s) for {kind} jobs: {sorted(unknown)}")

    out: Dict = {
        "seed": _require_int(params, "seed", 0),
        "jobs": _require_int(params, "jobs", 1, minimum=1),
        "batch_size": _require_int(params, "batch_size", None, minimum=1),
        "budget": _require_number(params, "budget"),
        "precision": _require_precision(params),
    }
    precision = out["precision"]
    if kind == "pvf":
        app = _canonical_app(params.get("app"), APP_FACTORIES)
        _check_app_precision(app, precision, APP_FACTORIES)
        model = params.get("model", "bitflip")
        if model not in ("bitflip", "syndrome"):
            raise ServiceError(
                f"unknown fault model {model!r}; choose from "
                f"('bitflip', 'syndrome')")
        out.update(app=app, model=model,
                   injections=_require_int(params, "injections", 300,
                                           minimum=1),
                   units_per_claim=_require_int(
                       params, "units_per_claim", None, minimum=1),
                   **_require_adaptive(params))
    elif kind == "rtl":
        opcode = params.get("opcode", "FADD")
        try:
            opcode = Opcode(str(opcode).upper()).value
        except ValueError:
            raise ServiceError(f"unknown opcode {opcode!r}")
        # the float datapath module follows the precision by default
        module = params.get(
            "module", precision if precision != "fp32" else "fp32")
        if module not in MODULE_INSTRUCTIONS:
            raise ServiceError(f"unknown module {module!r}")
        input_range = str(params.get("range", "M")).upper()
        if input_range not in ("S", "M", "L"):
            raise ServiceError(
                f"unknown input range {input_range!r}; "
                f"choose from ('S', 'M', 'L')")
        out.update(opcode=opcode, module=module, range=input_range,
                   faults=_require_int(params, "faults", 500, minimum=1),
                   units_per_claim=_require_int(
                       params, "units_per_claim", None, minimum=1),
                   **_require_adaptive(params),
                   **_require_rtl_fault_model(params))
        if out["fault_model"] == "stuck-at" and out["target_ci"] is not None:
            raise ServiceError(
                "adaptive sampling (target_ci) applies to per-injection "
                "outcome campaigns; stuck-at signature campaigns "
                "characterise a fixed fault list")
        if out["target_ci"] is not None and out["batch_size"] is None:
            # adaptive stopping needs units finer than the whole cell
            from ..campaign.engine import DEFAULT_BATCH_SIZE

            out["batch_size"] = DEFAULT_BATCH_SIZE
        _check_rtl_workload(out)
    else:  # pipeline
        apps = params.get("apps", ["MxM"])
        if not isinstance(apps, list) or not apps:
            raise ServiceError("parameter 'apps' must be a non-empty list")
        apps = [_canonical_app(app, APP_FACTORIES) for app in apps]
        for app in apps:
            _check_app_precision(app, precision, APP_FACTORIES)
        models = params.get("models", ["bitflip", "syndrome"])
        if not isinstance(models, list) or not models:
            raise ServiceError(
                "parameter 'models' must be a non-empty list")
        for model in models:
            if model not in ("bitflip", "syndrome"):
                raise ServiceError(f"unknown fault model {model!r}")
        opcodes = params.get("opcodes")
        if opcodes is not None:
            if not isinstance(opcodes, list) or not opcodes:
                raise ServiceError(
                    "parameter 'opcodes' must be a non-empty list")
            checked = []
            for name in opcodes:
                try:
                    checked.append(Opcode(name).value)
                except ValueError:
                    raise ServiceError(f"unknown opcode {name!r}")
            opcodes = checked
        out.update(
            apps=apps, models=models, opcodes=opcodes,
            grid_faults=_require_int(params, "grid_faults", 200),
            tmxm_faults=_require_int(params, "tmxm_faults", 200),
            injections=_require_int(params, "injections", 300))
    return out


# -- job specs ----------------------------------------------------------------
#: Unit-report schema of a job's spec -> its journal in the job directory.
_JOURNALS = {"pvf-report": "pvf.jsonl", "rtl-report": "rtl.jsonl",
             "signature-report": "signature.jsonl"}


def _pvf_state(params: dict):
    """Worker state of a pvf job: its application, model and injector."""
    from ..apps import make_application
    from ..datafiles import load_database
    from ..swfi.campaign import _SwfiState
    from ..swfi.models import RelativeErrorSyndrome, SingleBitFlip

    app = make_application(params["app"], seed=params["seed"],
                           precision=params.get("precision", "fp32"))
    model = (SingleBitFlip() if params["model"] == "bitflip"
             else RelativeErrorSyndrome(load_database()))
    return _SwfiState(app, model)


def job_spec(kind: str, params: dict):
    """The :class:`~repro.campaign.spec.CampaignSpec` of a pvf/rtl job.

    Built from the normalized params alone, on every claim, delivery and
    finalize, so it stays cheap: the application, syndrome database and
    golden runs come from the spec's worker-state factory where units
    execute; an rtl cell builds only its micro-benchmark (for the
    journal header).  Pipeline jobs have no single spec.
    """
    fault_model = params.get("fault_model", "transient")
    if kind == "pvf":
        from ..swfi.campaign import pvf_spec

        return pvf_spec(params["app"], _MODEL_NAMES[params["model"]],
                        params["injections"], partial(_pvf_state, params),
                        seed=params["seed"], batch_size=params["batch_size"])
    if kind == "rtl" and fault_model == "stuck-at":
        from ..rtl.campaign import signature_spec

        return signature_spec(params["module"], params["faults"],
                              params["seed"], apps=params.get("apps"))
    if kind == "rtl":
        from ..gpu.isa import Opcode
        from ..rtl.campaign import cell_spec
        from ..rtl.microbench import make_microbenchmark

        bench = make_microbenchmark(
            Opcode(params["opcode"]), params["range"], seed=params["seed"],
            precision=params.get("precision", "fp32"))
        return cell_spec(bench, params["module"], params["faults"],
                         params["seed"], batch_size=params["batch_size"],
                         fault_model=fault_model,
                         burst_width=params.get("burst_width", 4),
                         burst_window=params.get("burst_window", 4))
    raise ServiceError(f"{kind} jobs cannot be sharded across workers")


def spec_journal(spec, jobdir: Union[str, Path]) -> CampaignCheckpoint:
    """A job's unit journal, resumed: one file and header on every path."""
    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    return spec.journal(jobdir / _JOURNALS[spec.schema], resume=True)


def _journaled(spec, jobdir: Union[str, Path, None]) -> Dict[int, object]:
    """The unit reports journaled under *jobdir* so far."""
    if jobdir is None or not (Path(jobdir) / _JOURNALS[spec.schema]).exists():
        return {}
    journal = spec_journal(spec, jobdir)
    journal.close()
    return journal.completed


def _controller(spec, params: dict):
    """The job's adaptive controller, or None for a fixed-size job."""
    from ..adaptive import AdaptiveConfig

    if params.get("target_ci") is None:
        return None
    return spec.controller(AdaptiveConfig(**{
        key: params[key] for key in ("target_ci", "strategy", "min_per_cell")
        if params.get(key) is not None}))


def _horizon(spec, params: dict,
             completed: Callable[[], Dict[int, object]]):
    """``(units, controller)``: the units a job runs and its controller.

    A fixed-size job runs its whole plan (controller ``None``).  An
    adaptive job runs the moving horizon its controller settles on
    after replaying the unit reports ``completed()`` returns; only
    adaptive jobs call it, so a fixed-size job never reads its journal.
    """
    controller = _controller(spec, params)
    if controller is None:
        return spec.units, None
    controller.replay(completed())
    return controller.planned_units, controller


# -- job results --------------------------------------------------------------
def _pvf_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished PVF job."""
    low, high = report.confidence_interval()
    return {
        "kind": "pvf",
        "app": params["app"],
        "model": report.model_name,
        "pvf": report.pvf,
        "due_rate": report.due_rate,
        "n_injections": report.n_injections,
        "ci95": [low, high],
        "report": report.to_dict(),
    }


def _rtl_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished RTL job."""
    result = {
        "kind": "rtl",
        "opcode": params["opcode"],
        "module": params["module"],
        "range": params["range"],
        "avf": report.avf(),
        "n_faults": len(report.general),
        "n_masked": report.n_masked,
        "n_sdc": report.n_sdc,
        "n_due": report.n_due,
        "report": report.to_dict(),
    }
    # transient payloads predate the fault-model layer and stay unchanged
    fault_model = params.get("fault_model", "transient")
    if fault_model != "transient":
        result["fault_model"] = fault_model
    return result


def _signature_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished signature job."""
    return {
        "kind": "rtl",
        "fault_model": report.fault_model,
        "module": params["module"],
        "n_faults": report.n_faults,
        "apps": list(report.apps),
        "per_app": report.per_app_summary(),
        "report": report.to_dict(),
    }


def _job_result(params: dict, spec, results: Dict[int, object],
                controller, jobdir: Path) -> dict:
    """Merge a job's unit results into its ``report.json`` payload.

    A signature job also writes ``signature.json``, the enveloped
    report the API serves.
    """
    (report,) = spec.merge(results)
    if spec.schema == "signature-report":
        from ..artifacts import dump_artifact

        enveloped = dump_artifact("signature-report", report)
        (jobdir / "signature.json").write_text(
            json.dumps(enveloped, indent=2) + "\n")
        return _signature_result(params, report)
    build = _pvf_result if spec.schema == "pvf-report" else _rtl_result
    result = build(params, report)
    if controller is not None:
        summary = controller.summary()
        result["adaptive"] = {
            "rounds": controller.rounds,
            "converged": all(cell["converged"] for cell in summary),
            "cells": summary,
        }
    return result


# -- unit sharding -----------------------------------------------------------
def _per_claim(params: dict, n_units: int) -> int:
    per_claim = params.get("units_per_claim")
    if per_claim is None:
        # default: quarters, so a small worker fleet shares one job
        per_claim = max(1, math.ceil(n_units / 4))
    return int(per_claim)


def plan_job_units(job: Job, jobdir: Union[str, Path, None] = None
                   ) -> Optional[Tuple[int, int]]:
    """``(total units, units per claim)`` of a pvf/rtl job.

    Returns ``None`` for pipeline jobs, which the daemon's scheduler
    runs whole.  Every pvf/rtl job has at least one unit (submission
    requires injections/faults), and the unit count is exactly the job
    spec's plan, so shard ``[lo, hi)`` always names the same
    seed-indexed units on every worker.

    For adaptive jobs (``target_ci`` set) the unit count is the current
    **moving horizon**: the units the adaptive controller has planned
    after replaying the results journaled under *jobdir* so far (the
    warm-up prefix when none exist yet).  The finalizer extends the
    shard table whenever new results push the horizon out.
    """
    if job.kind == "pipeline":
        return None
    spec = job_spec(job.kind, job.params)
    units, _ = _horizon(spec, job.params, lambda: _journaled(spec, jobdir))
    return len(units), _per_claim(job.params, len(units))


def run_job_units(kind: str, params: dict, lo: int, hi: int,
                  cancel: Optional[Callable[[], bool]] = None,
                  metrics: Optional[CampaignMetrics] = None
                  ) -> Dict[int, dict]:
    """Execute units ``[lo, hi)`` of a pvf/rtl job on this machine.

    The worker half of the shard protocol: builds the job's spec from
    its (normalized) parameters and runs exactly the engine units a
    single-process run would execute at those indices, on a pool of the
    job's ``jobs`` processes.  *metrics* collects one telemetry row per
    unit.  Returns ``{unit index: report payload}`` ready to POST back.
    """
    done = job_spec(kind, params).run(lo, hi, n_jobs=params["jobs"],
                                      cancel=cancel, metrics=metrics)
    return {index: report.to_dict() for index, report in done.items()}


def finalize_sharded_job(store: JobStore, job: Job,
                         jobdir: Union[str, Path]) -> Job:
    """Merge a pvf/rtl job's journaled units into its final result.

    Runs on the daemon once every shard is done: replays the journal,
    merges the per-unit reports in index order (bit-identical to the
    serial run), writes ``report.json`` and lands the job in ``done``.
    Raises when units are missing — the journal is the ground truth,
    not the shard table.

    For adaptive jobs the journal tallies may push the stop rule's
    horizon past the units sharded so far; the finalizer then appends
    queued shard rows for the extension and raises, deferring the merge
    until workers have delivered the new prefix too.  Only a settled
    horizon — stable under its own complete tallies — is merged.
    """
    jobdir = Path(jobdir)
    if job.kind == "pipeline":
        raise ServiceError(f"job {job.id} is not a sharded job")
    spec = job_spec(job.kind, job.params)
    completed = _journaled(spec, jobdir)
    units, controller = _horizon(spec, job.params, lambda: completed)
    if controller is not None:
        covered = max((s["hi"] for s in store.shards(job.id)), default=0)
        if len(units) > covered:
            added = store.extend_shards(job.id, len(units),
                                        _per_claim(job.params, len(units)))
            raise ServiceError(
                f"job {job.id} adaptive horizon moved to {len(units)} "
                f"unit(s); {added} new shard(s) queued")
    missing = [u.index for u in units if u.index not in completed]
    if missing:
        raise ServiceError(
            f"job {job.id} journal is missing unit(s) "
            f"{missing[:8]}{'...' if len(missing) > 8 else ''}; "
            f"cannot merge")
    result = _job_result(job.params, spec,
                         {u.index: completed[u.index] for u in units},
                         controller, jobdir)
    (jobdir / "report.json").write_text(json.dumps(result, indent=2)
                                        + "\n")
    return store.finish(job.id, "done", result=result)


def execute_job(job: Job, jobdir: Union[str, Path],
                store: Optional[JobStore] = None) -> dict:
    """Run one claimed pipeline job whole; returns its result payload.

    Raises :class:`~repro.errors.CampaignCancelled` when the store's
    cancellation flag stops the run, :class:`~repro.errors.BudgetExceeded`
    when the job's ``budget`` does, and whatever the pipeline raised on
    failure.  The caller owns the store state transition.  pvf/rtl jobs
    never come here: workers run them shard by shard.
    """
    from ..campaign.pipeline import run_pipeline
    from ..gpu.isa import Opcode

    if job.kind != "pipeline":
        raise ServiceError(f"{job.kind} jobs run as shards on workers")
    params = job.params
    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    budget = params.get("budget")
    state = {"last_poll": 0.0, "cancelled": False, "why": ""}

    def cancel() -> bool:
        if state["cancelled"]:
            return True
        if budget is not None and time.monotonic() - started > budget:
            state.update(cancelled=True, why="budget")
            return True
        now = time.monotonic()
        if (store is not None
                and now - state["last_poll"] >= _CANCEL_POLL_SECONDS):
            state["last_poll"] = now
            if store.cancel_requested(job.id):
                state.update(cancelled=True, why="cancel")
                return True
        return False

    opcodes = params["opcodes"]
    if opcodes is not None:
        opcodes = [Opcode(name) for name in opcodes]
    try:
        # the job directory *is* the pipeline workdir: journals, the
        # database, per-stage metrics and the combined metrics.json all
        # land where the artifact registry looks for them
        summary = run_pipeline(
            jobdir, seed=params["seed"], opcodes=opcodes,
            grid_faults=params["grid_faults"],
            tmxm_faults=params["tmxm_faults"], apps=params["apps"],
            models=params["models"], injections=params["injections"],
            n_jobs=params["jobs"], batch_size=params["batch_size"],
            precision=params.get("precision", "fp32"), cancel=cancel)
    except CampaignCancelled as exc:
        if state["why"] == "budget":
            raise BudgetExceeded.for_job(job.id, budget) from exc
        raise
    result = {"kind": "pipeline", **summary}
    (jobdir / "report.json").write_text(json.dumps(result, indent=2)
                                        + "\n")
    return result


class Scheduler:
    """The daemon's maintenance loop, and its pipeline runner.

    Every pass reaps expired shard leases (re-queueing a SIGKILLed
    worker's shard), fails sharded jobs past their budget, settles
    cancelled ones and finalizes those whose every unit shard has been
    delivered.  With ``execute_jobs=True`` it then runs at most one
    queued pipeline job whole; pvf/rtl jobs are left to workers — an
    executing daemon's own local worker among them.  With
    ``execute_jobs=False`` the loop does *only* maintenance: the mode a
    coordinator daemon runs in.
    """

    def __init__(self, store: JobStore, workdir: Union[str, Path],
                 poll_interval: float = 0.5,
                 execute_jobs: bool = True) -> None:
        self.store = store
        self.workdir = Path(workdir)
        self.poll_interval = poll_interval
        self.execute_jobs = execute_jobs

    def jobdir(self, job_id: int) -> Path:
        return self.workdir / "jobs" / str(int(job_id))

    def maintain(self) -> None:
        """Reap expired leases; finalize fully-delivered sharded jobs."""
        reaped = self.store.reap()
        for job_id, lo in reaped["shards"]:
            _log.info("[scheduler] lease expired: job %s shard @%s "
                      "re-queued", job_id, lo)
        for job_id in self.store.sharded_jobs_ready():
            try:
                finalize_sharded_job(self.store, self.store.get(job_id),
                                     self.jobdir(job_id))
            except ServiceError as exc:
                # lost race with another finalizer, or journal gap: the
                # job stays running and the next pass retries
                _log.info("[scheduler] finalize of job %s deferred: %s",
                          job_id, exc)

    def run_once(self) -> Optional[Job]:
        """Claim and run at most one pipeline job; returns it (or None)."""
        job = self.store.claim_next()
        if job is None:
            return None
        try:
            result = execute_job(job, self.jobdir(job.id),
                                 store=self.store)
        except CampaignCancelled as exc:
            return self.store.finish(job.id, "cancelled", error=str(exc))
        except BudgetExceeded as exc:
            return self.store.finish(job.id, "failed", error=str(exc))
        except Exception as exc:
            detail = traceback.format_exc(limit=8)
            return self.store.finish(
                job.id, "failed",
                error=f"{type(exc).__name__}: {exc}\n{detail}")
        return self.store.finish(job.id, "done", result=result)

    def run_forever(self, stop: Optional[threading.Event] = None,
                    idle_hook: Optional[Callable[[], None]] = None
                    ) -> None:
        """Maintain (and run pipelines) until *stop* is set.

        Transient store errors — SQLite's "database is locked" under
        worker contention is the canonical one — must never kill the
        loop: they are logged and retried with bounded exponential
        backoff, and the backoff resets on the next clean pass.
        """
        stop = stop or threading.Event()
        initial = min(max(self.poll_interval, 0.05), _MAX_BACKOFF_SECONDS)
        backoff = initial
        while not stop.is_set():
            try:
                self.maintain()
                job = self.run_once() if self.execute_jobs else None
            except sqlite3.OperationalError as exc:
                _log.info("[scheduler] transient store error (%s); "
                          "retrying in %.1fs", exc, backoff)
                stop.wait(backoff)
                backoff = min(backoff * 2, _MAX_BACKOFF_SECONDS)
                continue
            backoff = initial
            if job is None:
                if idle_hook is not None:
                    idle_hook()
                stop.wait(self.poll_interval)
