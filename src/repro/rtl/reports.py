"""Campaign reports: the paper's *general* and *detailed* reports.

Per Sec. IV-A, every campaign produces a **general report** — the outcome
(SDC/DUE/Masked) of each injected fault, keyed by instruction, input range
and target module, from which the AVF is computed — and, for each SDC, a
**detailed report** carrying the fault location, golden and faulty values,
number of affected bits and threads, the spatial distribution of wrong
elements, and the memory addresses.  The detailed reports are what the
syndrome database is distilled from.

Records are held columnar (:mod:`repro.artifacts.columnar`): numpy
structured arrays with interned strings, so a paper-scale 1.5 M-fault
report costs tens of bytes per record instead of a boxed object graph,
and merges/outcome counts run vectorised.  ``report.general`` and
``report.detailed`` stay ``Sequence``-shaped — indexing or iterating
materialises the frozen record dataclasses below on demand.
Serialisation delegates to the ``rtl-report`` schema in
:mod:`repro.artifacts` (versioned, migration-aware); payload bytes are
identical to the historical hand-rolled format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..artifacts.columnar import DetailedColumns, GeneralColumns
from ..errors import CampaignError
from .classify import CorruptedValue, Outcome, RunClassification

__all__ = [
    "FaultDescriptor",
    "GeneralRecord",
    "DetailedRecord",
    "CampaignReport",
]


@dataclass(frozen=True)
class FaultDescriptor:
    """Serializable description of one injected transient."""

    module: str
    register: str
    lane: int
    bit: int
    cycle: int
    kind: str = "data"  # "data" | "control" (the 84%/16% pipeline split)


@dataclass(frozen=True)
class GeneralRecord:
    """General-report row: one fault, one outcome."""

    fault: FaultDescriptor
    outcome: Outcome
    n_corrupted_threads: int
    fault_fired: bool
    due_reason: Optional[str] = None


@dataclass(frozen=True)
class DetailedRecord:
    """Detailed-report row: one observed SDC and its full syndrome."""

    fault: FaultDescriptor
    opcode: str
    input_range: str
    value_kind: str
    corrupted: Tuple[CorruptedValue, ...]

    @property
    def n_corrupted_threads(self) -> int:
        return len({c.thread for c in self.corrupted})

    def relative_errors(self) -> List[float]:
        """Relative error of every corrupted output element."""
        return [c.relative_error_value(self.value_kind) for c in self.corrupted]

    def flipped_bit_counts(self) -> List[int]:
        return [c.n_flipped_bits for c in self.corrupted]


@dataclass
class CampaignReport:
    """All records of one (instruction, input range, module) campaign."""

    instruction: str
    input_range: str
    module: str
    n_injections: int = 0
    general: GeneralColumns = field(default_factory=GeneralColumns)
    detailed: DetailedColumns = field(default_factory=DetailedColumns)
    #: float precision of the characterisation kernel; "fp32" reports
    #: serialise without the field, byte-identical to the legacy format
    precision: str = "fp32"

    def __post_init__(self) -> None:
        # record lists (tests, ad-hoc construction) convert transparently
        if not isinstance(self.general, GeneralColumns):
            columns = GeneralColumns()
            for record in self.general:
                columns.append(record)
            self.general = columns
        if not isinstance(self.detailed, DetailedColumns):
            columns = DetailedColumns()
            for record in self.detailed:
                columns.append(record)
            self.detailed = columns

    # -- accumulation --------------------------------------------------------
    def add(self, fault: FaultDescriptor, classification: RunClassification,
            opcode: str, value_kind: str) -> None:
        self.n_injections += 1
        self.general.append(
            GeneralRecord(
                fault=fault,
                outcome=classification.outcome,
                n_corrupted_threads=classification.n_corrupted_threads,
                fault_fired=classification.fault_fired,
                due_reason=classification.due_reason,
            ))
        if classification.outcome is Outcome.SDC:
            self.detailed.append(
                DetailedRecord(
                    fault=fault,
                    opcode=opcode,
                    input_range=self.input_range,
                    value_kind=value_kind,
                    corrupted=tuple(classification.corrupted),
                ))

    # -- combination -------------------------------------------------------------
    def merge_in(self, other: "CampaignReport") -> None:
        """Fold *other*'s records into this report (same campaign cell)."""
        if (other.instruction != self.instruction
                or other.input_range != self.input_range
                or other.module != self.module
                or other.precision != self.precision):
            raise CampaignError(
                f"cannot merge report for {other.instruction}/"
                f"{other.input_range}/{other.module}/{other.precision} into "
                f"{self.instruction}/{self.input_range}/{self.module}/"
                f"{self.precision}")
        self.n_injections += other.n_injections
        self.general.extend(other.general)
        self.detailed.extend(other.detailed)

    @classmethod
    def merge(cls, reports: Sequence["CampaignReport"]) -> "CampaignReport":
        """Combine per-batch reports of one cell into one campaign report.

        Merging the fault-batch reports of a sharded cell *in batch
        order* yields a report bit-identical to the serial run's,
        because batch randomness depends only on the batch index (never
        on the executing worker or completion order).
        """
        reports = list(reports)
        if not reports:
            raise CampaignError("cannot merge an empty report list")
        merged = cls(
            instruction=reports[0].instruction,
            input_range=reports[0].input_range,
            module=reports[0].module,
            precision=reports[0].precision,
        )
        for report in reports:
            merged.merge_in(report)
        return merged

    # -- aggregate metrics -------------------------------------------------------
    def count(self, outcome: Outcome) -> int:
        return self.general.count(outcome)

    @property
    def n_sdc(self) -> int:
        return self.count(Outcome.SDC)

    @property
    def n_due(self) -> int:
        return self.count(Outcome.DUE)

    @property
    def n_masked(self) -> int:
        return self.count(Outcome.MASKED)

    @property
    def n_sdc_single(self) -> int:
        return self.general.count_sdc(multiple=False)

    @property
    def n_sdc_multiple(self) -> int:
        return self.general.count_sdc(multiple=True)

    def avf(self, outcome: Optional[Outcome] = None) -> float:
        """Architectural Vulnerability Factor: errors / injected faults.

        With ``outcome=None`` both SDCs and DUEs count as errors (the
        paper's definition); otherwise only the requested class counts.
        """
        if self.n_injections == 0:
            return 0.0
        if outcome is None:
            errors = self.n_sdc + self.n_due
        else:
            errors = self.count(outcome)
        return errors / self.n_injections

    def mean_corrupted_threads(self) -> float:
        """Average corrupted-thread count over SDC runs (paper Sec. V-B)."""
        return self.general.mean_threads_sdc()

    # -- (de)serialisation ------------------------------------------------------
    def to_dict(self) -> Dict:
        from ..artifacts import dump_body

        return dump_body("rtl-report", self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignReport":
        from ..artifacts import load_artifact

        return load_artifact("rtl-report", data)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        return cls.from_dict(json.loads(text))
