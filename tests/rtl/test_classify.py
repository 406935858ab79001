"""Run-classification tests."""

import math

import pytest

from repro.gpu.bits import float_to_bits
from repro.rtl.classify import (
    CorruptedValue,
    Outcome,
    RunClassification,
    classify_run,
    corruption_histogram,
)


class TestClassifyRun:
    def test_masked(self):
        result = classify_run([[1, 2, 3]], [[1, 2, 3]], [0x100])
        assert result.outcome is Outcome.MASKED
        assert result.n_corrupted_threads == 0

    def test_single_sdc(self):
        result = classify_run([[1, 2, 3]], [[1, 9, 3]], [0x100])
        assert result.outcome is Outcome.SDC
        assert result.n_corrupted_threads == 1
        assert not result.is_multiple
        value = result.corrupted[0]
        assert value.thread == 1
        assert value.address == 0x101
        assert value.golden_bits == 2 and value.faulty_bits == 9

    def test_multiple_sdc(self):
        result = classify_run([[1, 2], [3, 4]], [[9, 2], [3, 8]],
                              [0x100, 0x200])
        assert result.is_multiple
        assert result.n_corrupted_threads == 2

    def test_region_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_run([[1]], [[1], [2]], [0, 4])

    def test_region_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_run([[1, 2]], [[1]], [0])

    def test_multi_bit_corruption_per_word(self):
        # a multi-bit fault (stuck-at span / burst) flips several bits of
        # one output word; the classification reports them all
        result = classify_run([[0b0000, 0]], [[0b1011, 0]], [0x100])
        assert result.outcome is Outcome.SDC
        value = result.corrupted[0]
        assert value.n_flipped_bits == 3
        assert value.flipped_bits == [0, 1, 3]

    def test_due_classification_shape(self):
        # DUE runs never reach classify_run: the injector builds the
        # record directly — pin its shape
        due = RunClassification(Outcome.DUE,
                                due_reason="GpuHangError: deadlock")
        assert due.outcome is Outcome.DUE
        assert due.due_reason == "GpuHangError: deadlock"
        assert due.fault_fired  # fired unless the injector says otherwise
        assert due.corrupted == [] and not due.is_multiple

    def test_due_with_unfired_fault(self):
        due = RunClassification(Outcome.DUE, due_reason="timeout",
                                fault_fired=False)
        assert not due.fault_fired
        assert due.n_corrupted_threads == 0


class TestCorruptionHistogram:
    def test_empty_run_yields_empty_histogram(self):
        assert corruption_histogram([]) == {}

    def test_counts_words_by_flipped_bits(self):
        result = classify_run(
            [[0b0000, 0b0000, 0b0000]],
            [[0b0001, 0b0011, 0b1000]],
            [0x100])
        assert corruption_histogram(result.corrupted) == {1: 2, 2: 1}

    def test_histogram_sorted_by_bit_count(self):
        corrupted = [
            CorruptedValue(0, 0, 0, 0b111),
            CorruptedValue(1, 4, 0, 0b1),
            CorruptedValue(2, 8, 0, 0b11),
        ]
        assert list(corruption_histogram(corrupted)) == [1, 2, 3]


class TestCorruptedValue:
    def test_flipped_bits(self):
        value = CorruptedValue(0, 0, golden_bits=0b1010, faulty_bits=0b0011)
        assert value.flipped_bits == [0, 3]
        assert value.n_flipped_bits == 2

    def test_relative_error_float(self):
        value = CorruptedValue(0, 0, float_to_bits(2.0), float_to_bits(3.0))
        assert value.relative_error_f32() == pytest.approx(0.5)

    def test_relative_error_nan_is_inf(self):
        value = CorruptedValue(0, 0, float_to_bits(2.0), 0x7FC00000)
        assert math.isinf(value.relative_error_f32())

    def test_relative_error_int(self):
        value = CorruptedValue(0, 0, 10, 15)
        assert value.relative_error_int() == pytest.approx(0.5)

    def test_relative_error_int_zero_golden(self):
        value = CorruptedValue(0, 0, 0, 7)
        assert value.relative_error_int() == 7.0

    def test_value_kind_dispatch(self):
        value = CorruptedValue(0, 0, 10, 20)
        assert value.relative_error_value("u32") == pytest.approx(1.0)
