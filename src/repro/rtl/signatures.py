"""Per-application error signatures of permanent faults.

A transient yields one Masked/SDC/DUE sample per injection; a permanent
stuck-at defect instead characterises as an **error signature**: the same
physical fault is exercised by every application of a suite, and the
observable record is the per-application outcome plus the corruption
histogram of each application's kernel outputs (following
Guerrero-Balaguera et al.'s observation that permanent faults in the
scheduler and parallelism-management logic produce qualitatively
different, per-application error shapes).

:class:`SignatureReport` is the columnar result of one signature
campaign — one :class:`SignatureRecord` per (fault, application) pair,
in fault-major order — persisted as the versioned ``signature-report``
artifact and mined by :func:`repro.analytics.patterns.mine_patterns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..outcomes import Outcome, tally_outcomes
from .classify import RunClassification, corruption_histogram

__all__ = ["SignatureRecord", "SignatureReport"]


@dataclass
class SignatureRecord:
    """One (fault, application) exercise of a permanent fault.

    ``fault`` is the fault model's serde payload
    (:func:`repro.gpu.fault_plane.fault_to_dict`), so the exact defect —
    model, register, bit span, polarity — can be re-armed from the
    record.  ``corruption`` is the flipped-bit-count histogram of the
    application's corrupted output words (empty unless SDC).
    """

    fault_index: int
    app: str
    fault: dict
    outcome: Outcome
    fault_fired: bool = True
    due_reason: Optional[str] = None
    n_corrupted_values: int = 0
    n_corrupted_threads: int = 0
    corruption: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_classification(
            cls, fault_index: int, app: str, fault_payload: dict,
            classification: RunClassification) -> "SignatureRecord":
        return cls(
            fault_index=fault_index,
            app=app,
            fault=fault_payload,
            outcome=classification.outcome,
            fault_fired=classification.fault_fired,
            due_reason=classification.due_reason,
            n_corrupted_values=len(classification.corrupted),
            n_corrupted_threads=classification.n_corrupted_threads,
            corruption=corruption_histogram(classification.corrupted),
        )


@dataclass
class SignatureReport:
    """All (fault, application) records of one signature campaign."""

    module: str
    fault_model: str
    n_faults: int
    apps: List[str] = field(default_factory=list)
    seed: int = 0
    records: List[SignatureRecord] = field(default_factory=list)

    # -- accumulation ------------------------------------------------------
    def add(self, record: SignatureRecord) -> None:
        self.records.append(record)

    def merge_in(self, other: "SignatureReport") -> None:
        if (other.module != self.module
                or other.fault_model != self.fault_model):
            raise ValueError(
                "cannot merge signature reports of different campaigns")
        self.records.extend(other.records)

    @classmethod
    def merge(cls, reports: Sequence["SignatureReport"]
              ) -> "SignatureReport":
        """Concatenate partial reports **in unit order**.

        Signature units are planned fault-major ((fault 0, app 0),
        (fault 0, app 1), ...), so merging shard reports by ascending
        unit index reproduces the serial record order bit-identically —
        the same contract as :meth:`CampaignReport.merge`.
        """
        if not reports:
            raise ValueError("cannot merge zero reports")
        merged = cls(module=reports[0].module,
                     fault_model=reports[0].fault_model,
                     n_faults=reports[0].n_faults,
                     apps=list(reports[0].apps),
                     seed=reports[0].seed)
        for report in reports:
            merged.merge_in(report)
        return merged

    # -- derived views -----------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_injections(self) -> int:
        """One injection per (fault, application) record."""
        return len(self.records)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for r in self.records if r.outcome is outcome)

    @property
    def n_masked(self) -> int:
        return self.count(Outcome.MASKED)

    @property
    def n_sdc(self) -> int:
        return self.count(Outcome.SDC)

    @property
    def n_due(self) -> int:
        return self.count(Outcome.DUE)

    def per_app_summary(self) -> Dict[str, Dict[str, int]]:
        """Outcome tallies and corrupted-word totals per application."""
        summary: Dict[str, Dict[str, int]] = {}
        for app in self.apps:
            rows = [r for r in self.records if r.app == app]
            table = tally_outcomes(r.outcome for r in rows)
            table["n_faults"] = len(rows)
            table["n_corrupted_values"] = sum(
                r.n_corrupted_values for r in rows)
            summary[app] = table
        return summary

    def error_signature(self, fault_index: int) -> Dict[str, dict]:
        """One fault's signature: its behaviour across the app suite."""
        signature: Dict[str, dict] = {}
        for record in self.records:
            if record.fault_index != fault_index:
                continue
            signature[record.app] = {
                "outcome": record.outcome.value,
                "fault_fired": record.fault_fired,
                "n_corrupted_values": record.n_corrupted_values,
                "n_corrupted_threads": record.n_corrupted_threads,
                "corruption": dict(record.corruption),
            }
        return signature

    def distinct_signatures(self) -> Dict[tuple, int]:
        """How many faults share each cross-app outcome tuple.

        The coarse signature of a fault is its outcome per application,
        in suite order; the histogram of those tuples is the headline
        permanent-fault analytics table (how many defects are benign
        everywhere, app-dependent, uniformly fatal, ...).
        """
        per_fault: Dict[int, Dict[str, str]] = {}
        for record in self.records:
            per_fault.setdefault(record.fault_index, {})[record.app] = \
                record.outcome.value
        histogram: Dict[tuple, int] = {}
        for outcomes in per_fault.values():
            key = tuple(outcomes.get(app, "-") for app in self.apps)
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    # -- serde -------------------------------------------------------------
    def to_dict(self) -> dict:
        from ..artifacts import dump_body

        return dump_body("signature-report", self)

    @classmethod
    def from_dict(cls, data: dict) -> "SignatureReport":
        from ..artifacts import load_artifact

        return load_artifact("signature-report", data)
