"""End-to-end two-level pipeline: RTL grid -> syndrome DB -> SWFI PVF.

This is the paper's whole methodology as one resumable run
(``python -m repro pipeline``): the RTL instruction grid and the t-MxM
tile campaigns execute on the shared campaign engine, their per-batch
reports stream straight into a
:class:`~repro.syndrome.builder.StreamingDatabaseBuilder`, the distilled
database is saved as JSON, and the software-level PVF campaigns then
inject that database's syndromes (plus the single-bit-flip baseline)
into the selected applications.

Every stage journals to *workdir* and resumes from whatever is already
there:

* ``rtl_grid.jsonl`` / ``tmxm.jsonl`` — engine checkpoints; a killed
  grid restarts at the first unfinished fault batch.
* ``syndrome_db.json`` — once it exists the RTL stages are skipped
  entirely and the database is loaded back.
* ``pvf_<app>_<model>.jsonl`` — per-campaign engine checkpoints.
* ``<journal>.metrics.json`` — per-stage campaign telemetry (unit
  durations, queue waits, cached counts, outcome tallies), plus the
  combined ``metrics.json`` rendered by ``python -m repro stats``.
* ``pipeline_summary.json`` — final metrics, written last.

Because batch randomness is seed-indexed, the pipeline's outputs are
bit-identical for a fixed seed no matter how often it was interrupted or
how many workers ran it (``--jobs``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..errors import CampaignError
from .progress import ProgressReporter, make_progress
from .telemetry import (
    PIPELINE_KIND,
    SCHEMA_VERSION,
    CampaignMetrics,
    load_metrics,
    metrics_path_for,
    validate_metrics,
)

__all__ = ["PIPELINE_SEED", "run_pipeline"]

#: Default campaign seed (the paper's publication year, as in datafiles).
PIPELINE_SEED = 2021

_MODEL_NAMES = ("bitflip", "syndrome")


def _grid_stage(workdir: Path, builder, *, seed: int, opcodes,
                input_ranges, grid_faults: int, tmxm_faults: int,
                n_jobs: int, batch_size: Optional[int],
                timeout: Optional[float], fresh: bool,
                quiet: bool, precision: str,
                cancel: Optional[Callable[[], bool]]
                ) -> List[CampaignMetrics]:
    """Stage 1+2: RTL instruction grid and t-MxM tiles, streamed."""
    from ..rtl.campaign import grid_spec, tmxm_spec

    stages = [
        ("rtl", f"RTL grid ({grid_faults} faults/cell)", "rtl_grid.jsonl",
         builder.add_report,
         grid_spec(opcodes, input_ranges, n_faults=grid_faults, seed=seed,
                   batch_size=batch_size, timeout=timeout,
                   precision=precision)),
        ("tmxm", f"t-MxM tiles ({tmxm_faults} faults/cell)", "tmxm.jsonl",
         builder.add_tmxm_report,
         tmxm_spec(n_faults=tmxm_faults, seed=seed + 1,
                   batch_size=batch_size, timeout=timeout)),
    ]
    stage_metrics = []
    for prefix, title, name, add, spec in stages:
        journal = workdir / name
        resume = not fresh and journal.exists()
        progress = make_progress(None, prefix, quiet=quiet)
        progress.status(f"[stage 1/3] {title}"
                        + (" [resuming]" if resume else ""))
        metrics = CampaignMetrics(spec.stage)
        spec.run(n_jobs=n_jobs, checkpoint=journal, resume=resume,
                 progress=progress, metrics=metrics, cancel=cancel,
                 consume=lambda index, report, add=add: add(report),
                 collect=False)
        stage_metrics.append(metrics)
    return stage_metrics


def _make_model(name: str, database):
    from ..swfi.models import RelativeErrorSyndrome, SingleBitFlip

    if name == "bitflip":
        return SingleBitFlip()
    if name == "syndrome":
        return RelativeErrorSyndrome(database)
    raise CampaignError(
        f"unknown fault model {name!r}; choose from {_MODEL_NAMES}")


def run_pipeline(workdir: Union[str, Path],
                 seed: int = PIPELINE_SEED,
                 opcodes: Optional[Iterable] = None,
                 input_ranges: Sequence[str] = ("S", "M", "L"),
                 grid_faults: int = 200,
                 tmxm_faults: int = 200,
                 apps: Sequence[str] = ("MxM",),
                 models: Sequence[str] = _MODEL_NAMES,
                 injections: int = 300,
                 n_jobs: int = 1,
                 batch_size: Optional[int] = None,
                 timeout: Optional[float] = None,
                 fresh: bool = False,
                 quiet: bool = False,
                 precision: str = "fp32",
                 cancel: Optional[Callable[[], bool]] = None) -> Dict:
    """Run RTL campaigns, distil the database, measure application PVFs.

    Returns the summary dict (also written to
    ``workdir/pipeline_summary.json``).  Re-invoking with the same
    *workdir* resumes: finished RTL batches replay from their journals, a
    finished database skips the RTL stages, and finished PVF batches
    replay from theirs.  ``fresh=True`` discards all prior state.
    ``precision`` selects the float datapath end to end: the RTL grid
    characterises the matching reduced-precision unit, the syndrome
    database keys its entries by format, and the applications (which
    must support the format) run their operand streams through it.
    ``cancel`` is polled between work units of every stage; a true
    return aborts the pipeline with
    :class:`~repro.errors.CampaignCancelled`, leaving the journals
    resumable (the campaign service's cancellation hook).
    """
    from ..apps import APP_FACTORIES, make_application
    from ..rtl.campaign import CHARACTERIZED_OPCODES
    from ..swfi.campaign import run_pvf_campaign
    from ..syndrome.builder import StreamingDatabaseBuilder
    from ..syndrome.database import SyndromeDatabase

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if opcodes is None:
        opcodes = CHARACTERIZED_OPCODES
    opcodes = list(opcodes)
    app_names = list(apps)
    model_names = list(models)
    # fail on bad names before hours of RTL campaigning, not after
    for name in model_names:
        if name not in _MODEL_NAMES:
            raise CampaignError(
                f"unknown fault model {name!r}; choose from {_MODEL_NAMES}")
    for name in app_names:
        if name not in APP_FACTORIES:
            raise KeyError(
                f"unknown application {name!r}; "
                f"choose from {sorted(APP_FACTORIES)}")
    if precision not in ("fp32", "fp16", "bf16"):
        raise CampaignError(
            f"unknown float precision {precision!r}; "
            "choose from ('fp32', 'fp16', 'bf16')")
    if precision != "fp32":
        # fail on fp32-only apps before hours of RTL campaigning
        for name in app_names:
            make_application(name, seed=seed, precision=precision)

    status = make_progress(None, "", quiet=quiet)
    stage_metrics: List[Dict] = []
    db_path = workdir / "syndrome_db.json"
    if db_path.exists() and not fresh:
        status.status(f"[stage 1/3] syndrome database exists, "
                      f"skipping RTL campaigns ({db_path})")
        database = SyndromeDatabase.load(db_path)
        # keep the RTL stages' telemetry from the run that built the
        # database, so the combined metrics file stays complete
        for journal in ("rtl_grid.jsonl", "tmxm.jsonl"):
            metrics_file = metrics_path_for(workdir / journal)
            if metrics_file.exists():
                try:
                    stage_metrics.append(load_metrics(metrics_file))
                except CampaignError:
                    pass  # stale/foreign file: drop, do not abort
    else:
        builder = StreamingDatabaseBuilder()
        rtl_metrics = _grid_stage(
            workdir, builder, seed=seed, opcodes=opcodes,
            input_ranges=input_ranges, grid_faults=grid_faults,
            tmxm_faults=tmxm_faults, n_jobs=n_jobs,
            batch_size=batch_size, timeout=timeout, fresh=fresh,
            quiet=quiet, precision=precision, cancel=cancel)
        stage_metrics.extend(m.to_dict() for m in rtl_metrics)
        database = builder.build()
        database.save(db_path)
        status.status(f"[stage 2/3] syndrome database saved to {db_path} "
                      f"({len(database.entries())} entries, "
                      f"{len(database.tmxm_entries())} t-MxM entries)")

    pvf_results: List[Dict] = []
    for app_name in app_names:
        for model_name in model_names:
            app = make_application(app_name, seed=seed,
                                   precision=precision)
            model = _make_model(model_name, database)
            journal = workdir / f"pvf_{app_name}_{model_name}.jsonl"
            progress = make_progress(
                None, f"pvf {app_name}/{model_name}", quiet=quiet)
            progress.status(
                f"[stage 3/3] PVF: {app_name} under {model_name} "
                f"({injections} injections)"
                + (" [resuming]" if not fresh and journal.exists() else ""))
            pvf_metrics = CampaignMetrics(
                f"pvf/{app_name}/{model_name}")
            report = run_pvf_campaign(
                app, model, injections, seed=seed, n_jobs=n_jobs,
                batch_size=batch_size, timeout=timeout,
                checkpoint=journal,
                resume=not fresh and journal.exists(),
                progress=progress, metrics=pvf_metrics, cancel=cancel)
            stage_metrics.append(pvf_metrics.to_dict())
            low, high = report.confidence_interval()
            pvf_results.append({
                "app": app_name,
                "model": report.model_name,
                "pvf": report.pvf,
                "due_rate": report.due_rate,
                "n_injections": report.n_injections,
                "ci95": [low, high],
            })

    summary = {
        "seed": int(seed),
        "config": {
            "opcodes": [getattr(o, "value", str(o)) for o in opcodes],
            "input_ranges": list(input_ranges),
            "grid_faults": int(grid_faults),
            "tmxm_faults": int(tmxm_faults),
            "injections": int(injections),
            "batch_size": None if batch_size is None else int(batch_size),
            "precision": precision,
        },
        "database": {
            "path": str(db_path),
            "entries": len(database.entries()),
            "tmxm_entries": len(database.tmxm_entries()),
        },
        "pvf": pvf_results,
    }
    (workdir / "metrics.json").write_text(json.dumps({
        "kind": PIPELINE_KIND,
        "version": SCHEMA_VERSION,
        "stages": [validate_metrics(payload) for payload in stage_metrics],
    }, indent=2) + "\n")
    (workdir / "pipeline_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    status.status(f"pipeline complete: {workdir / 'pipeline_summary.json'}")
    return summary
