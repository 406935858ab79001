"""Columnar record storage: sequence surface, merges, vectorised counts."""

from __future__ import annotations

import pickle

import pytest

from repro.artifacts.columnar import (
    DetailedColumns,
    GeneralColumns,
    StringPool,
)
from repro.outcomes import Outcome
from repro.rtl.classify import CorruptedValue
from repro.rtl.reports import (
    CampaignReport,
    DetailedRecord,
    FaultDescriptor,
    GeneralRecord,
)


def _general(i: int, outcome: Outcome = Outcome.MASKED,
             threads: int = 0, due_reason=None) -> GeneralRecord:
    return GeneralRecord(
        fault=FaultDescriptor(f"mod{i % 2}", f"reg{i % 3}", lane=i,
                              bit=i % 32, cycle=100 + i),
        outcome=outcome, n_corrupted_threads=threads,
        fault_fired=i % 2 == 0, due_reason=due_reason)


def _detailed(i: int, n_corrupted: int = 2) -> DetailedRecord:
    return DetailedRecord(
        fault=FaultDescriptor(f"mod{i % 2}", "reg", lane=i, bit=1,
                              cycle=10 + i),
        opcode="FADD", input_range="M", value_kind="f32",
        corrupted=tuple(
            CorruptedValue(thread=t, address=64 + t, golden_bits=i,
                           faulty_bits=i ^ (1 << t))
            for t in range(n_corrupted)))


class TestStringPool:
    def test_intern_dedupes(self):
        pool = StringPool()
        assert pool.intern("a") == pool.intern("a")
        assert pool.intern("b") != pool.intern("a")
        assert len(pool) == 2

    def test_none_maps_to_minus_one(self):
        pool = StringPool()
        assert pool.intern(None) == -1
        assert pool.value(-1) is None

    def test_remap_table(self):
        ours, theirs = StringPool(), StringPool()
        ours.intern("x")
        theirs.intern("y")
        theirs.intern("x")
        table = ours.remap_from(theirs)
        assert ours.value(int(table[0])) == "y"
        assert ours.value(int(table[1])) == "x"


class TestSequenceSurface:
    def test_append_getitem_iterate(self):
        columns = GeneralColumns()
        records = [_general(i) for i in range(5)]
        for record in records:
            columns.append(record)
        assert len(columns) == 5
        assert columns[0] == records[0]
        assert columns[-1] == records[-1]
        assert list(columns) == records
        assert columns[1:3] == records[1:3]
        assert columns == records

    def test_index_out_of_range(self):
        columns = GeneralColumns()
        columns.append(_general(0))
        with pytest.raises(IndexError):
            columns[1]
        with pytest.raises(IndexError):
            columns[-2]

    def test_detailed_round_trip(self):
        columns = DetailedColumns()
        records = [_detailed(i, n_corrupted=i % 3) for i in range(7)]
        for record in records:
            columns.append(record)
        assert list(columns) == records
        assert columns[3].corrupted == records[3].corrupted

    def test_growth_beyond_initial_capacity(self):
        columns = GeneralColumns()
        records = [_general(i) for i in range(100)]
        for record in records:
            columns.append(record)
        assert list(columns) == records


class TestMerge:
    def test_extend_remaps_string_ids(self):
        left, right = GeneralColumns(), GeneralColumns()
        left.append(_general(0, Outcome.DUE, due_reason="hang"))
        # right's pool interns strings in a different order
        right.append(_general(3, Outcome.DUE,
                              due_reason="wall-clock guard"))
        right.append(_general(2, Outcome.SDC, threads=2))
        expected = list(left) + list(right)
        left.extend(right)
        assert list(left) == expected

    def test_detailed_extend_shifts_spans(self):
        left, right = DetailedColumns(), DetailedColumns()
        left.append(_detailed(0, n_corrupted=3))
        right.append(_detailed(1, n_corrupted=2))
        right.append(_detailed(2, n_corrupted=1))
        expected = list(left) + list(right)
        left.extend(right)
        assert list(left) == expected
        assert len(left.corrupted_rows()) == 6

    def test_merge_matches_sequential_appends(self):
        batches = [[_general(i + 10 * b,
                             Outcome.SDC if (i + b) % 3 == 0
                             else Outcome.MASKED,
                             threads=(i + b) % 3)
                    for i in range(8)] for b in range(4)]
        merged = GeneralColumns()
        for batch in batches:
            part = GeneralColumns()
            for record in batch:
                part.append(record)
            merged.extend(part)
        flat = [r for batch in batches for r in batch]
        assert list(merged) == flat

    def test_report_merge_bit_identical_to_serial(self):
        def build(records, detailed):
            report = CampaignReport("FADD", "M", "fp32",
                                    n_injections=len(records))
            for record in records:
                report.general.append(record)
            for record in detailed:
                report.detailed.append(record)
            return report

        general = [_general(i, Outcome.SDC if i % 4 == 0
                            else Outcome.MASKED, threads=i % 4)
                   for i in range(20)]
        detailed = [_detailed(i) for i in range(0, 20, 4)]
        serial = build(general, detailed)
        parts = [build(general[i:i + 5], detailed[j:j + 2])
                 for i, j in ((0, 0), (5, 2), (10, 4), (15, 5))]
        merged = CampaignReport.merge(parts)
        assert merged.to_json() == serial.to_json()


class TestAggregates:
    @pytest.fixture()
    def columns(self):
        columns = GeneralColumns()
        for i in range(30):
            if i % 5 == 0:
                columns.append(_general(
                    i, Outcome.DUE,
                    due_reason="wall-clock guard: injection exceeded"
                    if i % 10 == 0 else "hang"))
            elif i % 3 == 0:
                columns.append(_general(i, Outcome.SDC,
                                        threads=1 + (i % 2)))
            else:
                columns.append(_general(i))
        return columns

    def test_counts_match_brute_force(self, columns):
        records = list(columns)
        for outcome in Outcome:
            assert columns.count(outcome) == sum(
                1 for r in records if r.outcome is outcome)
        assert columns.outcome_counts() == {
            o.value: columns.count(o) for o in Outcome}

    def test_sdc_single_multiple(self, columns):
        records = list(columns)
        assert columns.count_sdc(multiple=False) == sum(
            1 for r in records
            if r.outcome is Outcome.SDC and r.n_corrupted_threads == 1)
        assert columns.count_sdc(multiple=True) == sum(
            1 for r in records
            if r.outcome is Outcome.SDC and r.n_corrupted_threads > 1)

    def test_mean_threads(self, columns):
        records = [r for r in columns if r.outcome is Outcome.SDC]
        expected = (sum(r.n_corrupted_threads for r in records)
                    / len(records))
        assert columns.mean_threads_sdc() == pytest.approx(expected)


class TestPickle:
    def test_general_columns_cross_process_shape(self):
        columns = GeneralColumns()
        for i in range(40):
            columns.append(_general(i, Outcome.SDC if i % 2 else
                                    Outcome.MASKED, threads=i % 2))
        clone = pickle.loads(pickle.dumps(columns))
        assert list(clone) == list(columns)
        clone.append(_general(99))      # still growable after transport
        assert len(clone) == 41

    def test_detailed_columns_pickle(self):
        columns = DetailedColumns()
        for i in range(10):
            columns.append(_detailed(i, n_corrupted=1 + i % 3))
        clone = pickle.loads(pickle.dumps(columns))
        assert list(clone) == list(columns)

    def test_pickle_trims_slack(self):
        columns = GeneralColumns()
        columns.append(_general(0))
        payload = pickle.dumps(columns)
        clone = pickle.loads(payload)
        assert len(clone._rows) == 1    # capacity 16 not shipped


class TestChunks:
    def test_iter_chunks_covers_everything(self):
        columns = DetailedColumns()
        records = [_detailed(i) for i in range(10)]
        for record in records:
            columns.append(record)
        chunks = list(columns.iter_chunks(size=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [r for chunk in chunks for r in chunk] == records

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            next(DetailedColumns().iter_chunks(size=0))
