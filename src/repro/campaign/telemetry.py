"""Campaign telemetry: per-unit timing, counters and throughput.

The paper ran >1.5M RTL faults on a 12-node ModelSim cluster and
thousands of NVBitFI runs per application; at that scale a campaign is
only trustworthy if you can *watch* it — where the wall-clock goes,
which cells stall, how much of a resume was replayed from the journal
rather than re-run.  :class:`CampaignMetrics` is the collector the
execution engine feeds: one :class:`UnitRecord` per completed work unit
(duration, queue wait, worker id, cached flag, outcome tallies), plus
stage-level aggregates (units/s, injections/s, Masked/SDC/DUE running
totals, ETA).

The serialised form — ``kind: "campaign-metrics"`` — is one schema for
every producer: campaign runners write ``<journal>.metrics.json`` next
to each checkpoint, the pipeline additionally writes a combined
``metrics.json`` (``kind: "pipeline-metrics"``) per workdir, and the
``benchmarks/bench_*_parallel`` benchmarks emit their ``BENCH_*.json``
trajectories in the same format.  ``python -m repro stats <path>``
renders any of them.

Telemetry is strictly an observer: it never touches the campaign's
random streams, so merged reports stay bit-identical with metrics
enabled.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import CampaignError
from ..outcomes import outcome_attrs

__all__ = [
    "SCHEMA_KIND",
    "SCHEMA_VERSION",
    "CampaignMetrics",
    "UnitRecord",
    "discover_metrics",
    "emit_metrics",
    "load_metrics",
    "metrics_path_for",
    "render_stats",
    "resolve_metrics",
    "validate_metrics",
]

SCHEMA_KIND = "campaign-metrics"
PIPELINE_KIND = "pipeline-metrics"
SCHEMA_VERSION = 1

#: Outcome attribute names sniffed off any report type that carries them
#: (every unit report does: :class:`~repro.rtl.reports.CampaignReport`,
#: :class:`~repro.rtl.signatures.SignatureReport` and
#: :class:`~repro.swfi.campaign.PVFReport`).  Derived from the shared
#: :class:`~repro.outcomes.Outcome` taxonomy, in enum order.
_OUTCOME_ATTRS = outcome_attrs()


@dataclass
class UnitRecord:
    """Telemetry of one completed work unit."""

    index: int
    label: str = ""
    size: int = 0
    seconds: float = 0.0        # wall-clock spent executing the unit
    queue_wait: float = 0.0     # submit -> execution start (pool lag)
    cached: bool = False        # replayed from the journal, not re-run
    worker: int = 0             # executing process id (0 = unknown)
    timeouts: int = 0           # reserved: no level has a wall-clock guard
    retries: int = 0            # reserved: engine does not retry yet
    outcomes: Dict[str, int] = field(default_factory=dict)
    injections: int = 0

    def to_dict(self) -> dict:
        from ..artifacts import codec_for

        return codec_for(UnitRecord).dump(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "UnitRecord":
        from ..artifacts import codec_for

        return codec_for(UnitRecord).load(payload)

    @property
    def cell(self) -> str:
        """Cell key: the unit label minus its intra-cell batch suffix."""
        return self.label.split(" [")[0] if self.label else str(self.index)


def _sniff_outcomes(report: Any) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for key, attr in _OUTCOME_ATTRS:
        value = getattr(report, attr, None)
        if isinstance(value, int):
            out[key] = value
    return out


class CampaignMetrics:
    """Accumulates per-unit telemetry for one campaign stage.

    The engine calls :meth:`record_unit` once per completed unit (cached
    replays included); everything else — rates, ETA, outcome totals,
    serialisation — is derived.  ``total_units`` is filled in by the
    engine when the plan is known.  ``elapsed`` (seconds the stage ran
    before this collector was built) keeps a rebuilt one's wall-clock.
    """

    def __init__(self, stage: str, total_units: Optional[int] = None,
                 meta: Optional[dict] = None, elapsed: float = 0.0) -> None:
        self.stage = stage
        self.total_units = total_units
        self.meta = dict(meta or {})
        self.units: List[UnitRecord] = []
        self._started = time.perf_counter() - elapsed
        self._wall: Optional[float] = None
        # outcome totals folded over the first ``_folded`` rows of the
        # list ``_tallied`` (see outcome_totals)
        self._tallied: Optional[List[UnitRecord]] = None
        self._folded = 0
        self._totals: Dict[str, int] = {}

    # -- collection ---------------------------------------------------------
    def record_unit(self, index: int, label: str = "", size: int = 0,
                    report: Any = None, *, seconds: float = 0.0,
                    queue_wait: float = 0.0, cached: bool = False,
                    worker: Optional[int] = None) -> UnitRecord:
        """Record one finished unit, sniffing tallies off its report."""
        self._wall = None  # live again: un-freeze the wall-clock
        record = UnitRecord(
            index=index, label=label, size=size,
            seconds=max(0.0, seconds), queue_wait=max(0.0, queue_wait),
            cached=cached,
            worker=os.getpid() if worker is None else worker,
            outcomes=_sniff_outcomes(report) if report is not None else {},
            injections=int(getattr(report, "n_injections", 0) or 0),
        )
        self.units.append(record)
        return record

    def finish(self) -> None:
        """Stamp the stage wall-clock.

        Restamps on every call (always measuring from construction), so
        a collector reused across engine rounds — the adaptive PVF
        runner — keeps a wall-clock that covers all of them.
        """
        self._wall = time.perf_counter() - self._started

    # -- aggregates ---------------------------------------------------------
    @property
    def units_done(self) -> int:
        return len(self.units)

    @property
    def units_cached(self) -> int:
        return sum(1 for u in self.units if u.cached)

    @property
    def units_run(self) -> int:
        return self.units_done - self.units_cached

    def wall_seconds(self) -> float:
        if self._wall is not None:
            return self._wall
        return time.perf_counter() - self._started

    def outcome_totals(self) -> Dict[str, int]:
        """Outcome tallies summed over every unit, keys in first-seen order.

        Folds only the units appended since the last call, so the
        engine's per-unit heartbeat stays constant-time; a ``units``
        list that was reassigned (``from_dict``) or shortened is folded
        again from its start.
        """
        units = self.units
        if units is not self._tallied or len(units) < self._folded:
            self._tallied, self._folded, self._totals = units, 0, {}
        totals = self._totals
        for unit in units[self._folded:]:
            for key, value in unit.outcomes.items():
                totals[key] = totals.get(key, 0) + value
        self._folded = len(units)
        return dict(totals)

    def injections_total(self) -> int:
        return sum(u.injections for u in self.units)

    def timeouts_total(self) -> int:
        return sum(u.timeouts for u in self.units)

    def units_per_second(self) -> float:
        elapsed = self.wall_seconds()
        return self.units_done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock estimate; None before any rate exists."""
        if self.total_units is None or not self.units_done:
            return None
        rate = self.units_per_second()
        if rate <= 0:
            return None
        return max(0, self.total_units - self.units_done) / rate

    def heartbeat(self) -> str:
        """One-line live telemetry for the engine's progress lines."""
        parts = [f"{self.units_per_second():.1f} units/s"]
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        totals = self.outcome_totals()
        if totals:
            parts.append("M/S/D {masked}/{sdc}/{due}".format(
                masked=totals.get("masked", 0), sdc=totals.get("sdc", 0),
                due=totals.get("due", 0)))
        return " ".join(parts)

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        from ..artifacts import dump_body

        return dump_body(SCHEMA_KIND, self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignMetrics":
        from ..artifacts import load_artifact

        return load_artifact(SCHEMA_KIND, payload)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the stage's ``metrics.json`` (schema-validated).

        The write goes through a sibling temp file + ``os.replace`` so
        concurrent readers — the service's HTTP handlers poll this file
        while the campaign runs — always see a complete JSON document,
        never a torn half-write.
        """
        self.finish()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(validate_metrics(self.to_dict()),
                             indent=2) + "\n"
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(payload)
        os.replace(tmp, path)
        return path


# -- schema -------------------------------------------------------------------
def validate_metrics(payload: dict) -> dict:
    """Check a ``campaign-metrics`` payload against the schema.

    Returns the payload unchanged on success so callers can chain it;
    raises :class:`~repro.errors.CampaignError` naming the offending
    field otherwise.  Extra keys are allowed — benchmarks attach their
    own ``bench`` section on top of the shared spine.  The schema itself
    lives in the :mod:`repro.artifacts` registry under this kind.
    """
    from ..artifacts import validate_artifact

    return validate_artifact(SCHEMA_KIND, payload)


def resolve_metrics(metrics: Optional["CampaignMetrics"],
                    stage: str) -> "CampaignMetrics":
    """Every campaign run collects telemetry: the caller's collector,
    else a fresh one named after the run's *stage*."""
    return CampaignMetrics(stage=stage) if metrics is None else metrics


def emit_metrics(metrics: Optional["CampaignMetrics"],
                 checkpoint: Optional[Union[str, Path]]) -> None:
    """Write ``<journal>.metrics.json`` next to the checkpoint journal."""
    if metrics is not None and checkpoint is not None:
        metrics.save(metrics_path_for(checkpoint))


def metrics_path_for(journal: Union[str, Path]) -> Path:
    """Where a campaign's metrics land: next to its checkpoint journal.

    ``rtl_grid.jsonl`` -> ``rtl_grid.metrics.json``.
    """
    journal = Path(journal)
    stem = journal.name
    for suffix in (".jsonl", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return journal.with_name(stem + ".metrics.json")


def load_metrics(path: Union[str, Path]) -> dict:
    """Load and validate one ``campaign-metrics`` JSON file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"cannot load metrics from {path}: {exc}")
    return validate_metrics(payload)


def discover_metrics(target: Union[str, Path]) -> List[dict]:
    """Collect every stage-metrics payload under *target*.

    *target* may be a single metrics file (campaign or pipeline kind),
    a checkpoint journal (its sibling metrics file is used), or a
    workdir — in which case the combined ``metrics.json`` is preferred
    and ``*.metrics.json`` stage files are the fallback.
    """
    target = Path(target)
    if target.is_dir():
        combined = target / "metrics.json"
        if combined.exists():
            return discover_metrics(combined)
        stage_files = sorted(target.glob("*.metrics.json"))
        if not stage_files:
            raise CampaignError(
                f"no metrics.json or *.metrics.json under {target}")
        return [load_metrics(p) for p in stage_files]
    if not target.exists():
        raise CampaignError(f"no such metrics file or workdir: {target}")
    if target.suffix == ".jsonl":
        return discover_metrics(metrics_path_for(target))
    try:
        payload = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"cannot load metrics from {target}: {exc}")
    if isinstance(payload, dict) and payload.get("kind") == PIPELINE_KIND:
        return [validate_metrics(stage)
                for stage in payload.get("stages", [])]
    return [validate_metrics(payload)]


# -- rendering ----------------------------------------------------------------
def _fmt_rate(value: float) -> str:
    return f"{value:.1f}" if value < 1000 else f"{value:.0f}"


def _stage_row(payload: dict) -> List[str]:
    outcomes = payload.get("outcomes", {})
    return [
        payload["stage"],
        str(payload["units_done"]),
        str(payload["units_cached"]),
        str(payload["injections"]),
        f"{payload['wall_seconds']:.2f}",
        _fmt_rate(payload["units_per_second"]),
        _fmt_rate(payload.get("injections_per_second", 0.0)),
        str(outcomes.get("masked", 0)),
        str(outcomes.get("sdc", 0)),
        str(outcomes.get("due", 0)),
    ]


def _render_table(headers: List[str], rows: List[List[str]],
                  indent: str = "") -> List[str]:
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = [indent + "  ".join(h.ljust(widths[i]) if i == 0 else
                                h.rjust(widths[i])
                                for i, h in enumerate(headers))]
    for row in rows:
        lines.append(indent + "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)))
    return lines


def render_stats(payloads: List[dict], per_cell: bool = True) -> str:
    """Render stage-summary and per-cell throughput tables."""
    headers = ["stage", "units", "cached", "inj", "wall s",
               "units/s", "inj/s", "masked", "sdc", "due"]
    lines = _render_table(headers, [_stage_row(p) for p in payloads])
    if per_cell:
        for payload in payloads:
            units = [UnitRecord.from_dict(u)
                     for u in payload.get("units", [])]
            if not units:
                continue
            cells: Dict[str, List[UnitRecord]] = {}
            for unit in units:
                cells.setdefault(unit.cell, []).append(unit)
            if len(cells) <= 1 and len(units) <= 1:
                continue
            rows = []
            for cell in sorted(cells):
                group = cells[cell]
                seconds = sum(u.seconds for u in group)
                injections = sum(u.injections for u in group)
                totals: Dict[str, int] = {}
                for unit in group:
                    for key, value in unit.outcomes.items():
                        totals[key] = totals.get(key, 0) + value
                rows.append([
                    cell,
                    str(len(group)),
                    str(sum(1 for u in group if u.cached)),
                    str(injections),
                    f"{seconds:.2f}",
                    _fmt_rate(injections / seconds) if seconds > 0
                    else "-",
                    str(totals.get("masked", 0)),
                    str(totals.get("sdc", 0)),
                    str(totals.get("due", 0)),
                ])
            lines.append("")
            lines.append(f"{payload['stage']} — per-cell throughput")
            lines.extend(_render_table(
                ["cell", "units", "cached", "inj", "exec s", "inj/s",
                 "masked", "sdc", "due"], rows, indent="  "))
    return "\n".join(lines)
