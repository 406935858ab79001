"""Columnar storage for campaign report records.

A paper-scale RTL campaign injects >1.5 M faults, and the legacy
representation spent ~0.5 kB per general record: a boxed
``GeneralRecord`` holding a boxed ``FaultDescriptor`` plus five boxed
scalars.  Here the same records live in growable numpy structured
arrays — ~37 bytes per general row — with repeated strings (module,
register, due reason, opcode...) interned in a :class:`StringPool` of
int32 ids.  Detailed records add a CSR-style layout: per-record rows
point into flat corrupted-value arrays via ``[start, stop)`` spans, so a
record's corruption list is one slice, and whole-report merges are array
concatenations plus an id remap instead of a million list appends.

The public surface stays record-shaped: both column classes are
``Sequence``-like (len / index / slice / iterate) and materialise the
original frozen dataclasses on demand, so every existing consumer —
syndrome builders, AVF analysis, telemetry sniffers, tests — keeps
reading ``report.general[i].outcome`` unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..outcomes import Outcome

__all__ = ["StringPool", "GeneralColumns", "DetailedColumns"]

_OUTCOMES = tuple(Outcome)
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}

_GENERAL_DTYPE = np.dtype([
    ("module", np.int32), ("register", np.int32), ("lane", np.int32),
    ("bit", np.int32), ("cycle", np.int64), ("kind", np.int32),
    ("outcome", np.int8), ("threads", np.int32), ("fired", np.bool_),
    ("due", np.int32),
])

_DETAILED_DTYPE = np.dtype([
    ("module", np.int32), ("register", np.int32), ("lane", np.int32),
    ("bit", np.int32), ("cycle", np.int64), ("kind", np.int32),
    ("opcode", np.int32), ("input_range", np.int32),
    ("value_kind", np.int32), ("start", np.int64), ("stop", np.int64),
])

_CORRUPT_DTYPE = np.dtype([
    ("thread", np.int64), ("address", np.int64),
    ("golden", np.uint64), ("faulty", np.uint64),
])

_MIN_CAPACITY = 16


class StringPool:
    """Interns strings to dense int ids (id -1 encodes ``None``)."""

    def __init__(self) -> None:
        self._values: List[str] = []
        self._ids: Dict[str, int] = {}

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._values)
            self._values.append(value)
            self._ids[value] = ident
        return ident

    def value(self, ident: int) -> Optional[str]:
        return None if ident < 0 else self._values[ident]

    def remap_from(self, other: "StringPool") -> np.ndarray:
        """id translation table: *other*'s ids -> this pool's ids."""
        if not other._values:
            return np.empty(0, dtype=np.int32)
        return np.array([self.intern(v) for v in other._values],
                        dtype=np.int32)

    def __len__(self) -> int:
        return len(self._values)


def _remap(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Apply a pool translation table, keeping -1 (None) as -1."""
    out = np.full(ids.shape, -1, dtype=ids.dtype)
    mask = ids >= 0
    if mask.any():
        out[mask] = table[ids[mask]]
    return out


class _Columns:
    """Shared growable-structured-array plumbing."""

    _dtype: np.dtype

    def __init__(self) -> None:
        self._rows = np.empty(0, dtype=self._dtype)
        self._n = 0
        self._pool = StringPool()

    def _grow(self, extra: int) -> None:
        need = self._n + extra
        if need <= len(self._rows):
            return
        capacity = max(_MIN_CAPACITY, len(self._rows))
        while capacity < need:
            capacity *= 2
        rows = np.empty(capacity, dtype=self._dtype)
        rows[:self._n] = self._rows[:self._n]
        self._rows = rows

    def rows(self) -> np.ndarray:
        """The live rows (a view; do not mutate)."""
        return self._rows[:self._n]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator:
        for i in range(self._n):
            yield self[i]

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("record index out of range")
        return self._materialise(index)

    def _materialise(self, index: int):
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        if not isinstance(other, type(self)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self._n}>"

    # pickle without the slack capacity (reports cross process pools)
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_rows"] = self._rows[:self._n].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class GeneralColumns(_Columns):
    """General-report rows: one fault, one outcome, ~37 bytes each."""

    _dtype = _GENERAL_DTYPE

    def append(self, record) -> None:
        self._grow(1)
        fault = record.fault
        row = self._rows[self._n]
        row["module"] = self._pool.intern(fault.module)
        row["register"] = self._pool.intern(fault.register)
        row["lane"] = fault.lane
        row["bit"] = fault.bit
        row["cycle"] = fault.cycle
        row["kind"] = self._pool.intern(fault.kind)
        row["outcome"] = _OUTCOME_CODE[record.outcome]
        row["threads"] = record.n_corrupted_threads
        row["fired"] = record.fault_fired
        row["due"] = self._pool.intern(record.due_reason)
        self._n += 1

    def extend(self, other: "GeneralColumns") -> None:
        if not len(other):
            return
        table = self._pool.remap_from(other._pool)
        rows = other.rows()
        self._grow(len(rows))
        dest = self._rows[self._n:self._n + len(rows)]
        dest[:] = rows
        for name in ("module", "register", "kind", "due"):
            dest[name] = _remap(rows[name], table)
        self._n += len(rows)

    def _materialise(self, index: int):
        from ..rtl.reports import FaultDescriptor, GeneralRecord

        row = self._rows[index]
        return GeneralRecord(
            fault=FaultDescriptor(
                module=self._pool.value(int(row["module"])),
                register=self._pool.value(int(row["register"])),
                lane=int(row["lane"]), bit=int(row["bit"]),
                cycle=int(row["cycle"]),
                kind=self._pool.value(int(row["kind"]))),
            outcome=_OUTCOMES[int(row["outcome"])],
            n_corrupted_threads=int(row["threads"]),
            fault_fired=bool(row["fired"]),
            due_reason=self._pool.value(int(row["due"])),
        )

    # -- vectorised aggregates (the report's hot metrics) -------------------
    def count(self, outcome: Outcome) -> int:
        rows = self.rows()
        return int(np.count_nonzero(
            rows["outcome"] == _OUTCOME_CODE[outcome]))

    def outcome_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.rows()["outcome"],
                             minlength=len(_OUTCOMES))
        return {o.value: int(counts[c]) for o, c in _OUTCOME_CODE.items()}

    def count_sdc(self, multiple: bool) -> int:
        rows = self.rows()
        sdc = rows["outcome"] == _OUTCOME_CODE[Outcome.SDC]
        threads = rows["threads"]
        mask = sdc & (threads > 1 if multiple else threads == 1)
        return int(np.count_nonzero(mask))

    def mean_threads_sdc(self) -> float:
        rows = self.rows()
        sdc = rows["outcome"] == _OUTCOME_CODE[Outcome.SDC]
        count = int(np.count_nonzero(sdc))
        if count == 0:
            return 0.0
        return float(rows["threads"][sdc].sum()) / count


class DetailedColumns(_Columns):
    """Detailed-report rows + flat CSR arrays of corrupted values."""

    _dtype = _DETAILED_DTYPE

    def __init__(self) -> None:
        super().__init__()
        self._corrupted = np.empty(0, dtype=_CORRUPT_DTYPE)
        self._n_corrupted = 0

    def _grow_corrupted(self, extra: int) -> None:
        need = self._n_corrupted + extra
        if need <= len(self._corrupted):
            return
        capacity = max(_MIN_CAPACITY, len(self._corrupted))
        while capacity < need:
            capacity *= 2
        values = np.empty(capacity, dtype=_CORRUPT_DTYPE)
        values[:self._n_corrupted] = self._corrupted[:self._n_corrupted]
        self._corrupted = values

    def corrupted_rows(self) -> np.ndarray:
        return self._corrupted[:self._n_corrupted]

    def append(self, record) -> None:
        self._grow(1)
        self._grow_corrupted(len(record.corrupted))
        fault = record.fault
        row = self._rows[self._n]
        row["module"] = self._pool.intern(fault.module)
        row["register"] = self._pool.intern(fault.register)
        row["lane"] = fault.lane
        row["bit"] = fault.bit
        row["cycle"] = fault.cycle
        row["kind"] = self._pool.intern(fault.kind)
        row["opcode"] = self._pool.intern(record.opcode)
        row["input_range"] = self._pool.intern(record.input_range)
        row["value_kind"] = self._pool.intern(record.value_kind)
        row["start"] = self._n_corrupted
        row["stop"] = self._n_corrupted + len(record.corrupted)
        for value in record.corrupted:
            cell = self._corrupted[self._n_corrupted]
            cell["thread"] = value.thread
            cell["address"] = value.address
            cell["golden"] = value.golden_bits
            cell["faulty"] = value.faulty_bits
            self._n_corrupted += 1
        self._n += 1

    def extend(self, other: "DetailedColumns") -> None:
        if not len(other):
            return
        table = self._pool.remap_from(other._pool)
        rows = other.rows()
        corrupted = other.corrupted_rows()
        self._grow(len(rows))
        self._grow_corrupted(len(corrupted))
        dest = self._rows[self._n:self._n + len(rows)]
        dest[:] = rows
        for name in ("module", "register", "kind", "opcode",
                     "input_range", "value_kind"):
            dest[name] = _remap(rows[name], table)
        dest["start"] = rows["start"] + self._n_corrupted
        dest["stop"] = rows["stop"] + self._n_corrupted
        self._corrupted[self._n_corrupted:
                        self._n_corrupted + len(corrupted)] = corrupted
        self._n += len(rows)
        self._n_corrupted += len(corrupted)

    def _materialise(self, index: int):
        from ..rtl.classify import CorruptedValue
        from ..rtl.reports import DetailedRecord, FaultDescriptor

        row = self._rows[index]
        span = self._corrupted[int(row["start"]):int(row["stop"])]
        return DetailedRecord(
            fault=FaultDescriptor(
                module=self._pool.value(int(row["module"])),
                register=self._pool.value(int(row["register"])),
                lane=int(row["lane"]), bit=int(row["bit"]),
                cycle=int(row["cycle"]),
                kind=self._pool.value(int(row["kind"]))),
            opcode=self._pool.value(int(row["opcode"])),
            input_range=self._pool.value(int(row["input_range"])),
            value_kind=self._pool.value(int(row["value_kind"])),
            corrupted=tuple(
                CorruptedValue(thread=int(c["thread"]),
                               address=int(c["address"]),
                               golden_bits=int(c["golden"]),
                               faulty_bits=int(c["faulty"]))
                for c in span),
        )

    def iter_chunks(self, size: int = 1024) -> Iterator[List]:
        """Yield materialised records *size* at a time.

        Lets huge detailed reports stream through downstream builders
        without ever materialising the whole record list at once.
        """
        if size < 1:
            raise ValueError("chunk size must be positive")
        for lo in range(0, self._n, size):
            yield [self._materialise(i)
                   for i in range(lo, min(lo + size, self._n))]

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_corrupted"] = self._corrupted[:self._n_corrupted].copy()
        return state
