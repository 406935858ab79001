"""Instrumented SASS op-layer tests."""

import numpy as np
import pytest

from repro.gpu.isa import Opcode
from repro.swfi.ops import SassOps


class TestCounting:
    def test_elementwise_counts(self):
        ops = SassOps()
        ops.fadd(np.ones(10, np.float32), np.ones(10, np.float32))
        ops.fmul(np.ones(4, np.float32), 2.0)
        assert ops.counts[Opcode.FADD] == 10
        assert ops.counts[Opcode.FMUL] == 4
        assert ops.injectable_total == 14

    def test_broadcast_counts_output_size(self):
        ops = SassOps()
        ops.ffma(np.ones((8, 1), np.float32), np.ones((1, 8), np.float32),
                 np.zeros((8, 8), np.float32))
        assert ops.counts[Opcode.FFMA] == 64

    def test_other_instructions(self):
        ops = SassOps()
        ops.other(5)
        assert ops.other_count == 5
        assert ops.total == 5
        assert ops.injectable_total == 0

    def test_profile_drops_zero_entries(self):
        ops = SassOps()
        ops.iadd(1, 2)
        assert set(ops.profile()) == {Opcode.IADD}


class TestSemantics:
    def test_float32_arithmetic(self):
        ops = SassOps()
        a = np.array([1.5, 2.5], np.float32)
        b = np.array([0.25, -1.0], np.float32)
        assert np.array_equal(ops.fadd(a, b), a + b)
        assert np.array_equal(ops.fmul(a, b), a * b)
        assert np.array_equal(ops.ffma(a, b, a), a * b + a)

    def test_int32_arithmetic(self):
        ops = SassOps()
        a = np.array([3, -4], np.int32)
        b = np.array([5, 7], np.int32)
        assert np.array_equal(ops.iadd(a, b), a + b)
        assert np.array_equal(ops.imul(a, b), a * b)
        assert np.array_equal(ops.imad(a, b, a), a * b + a)
        # Python ints wrap into int32, like a 32-bit register
        assert ops.iadd(a, 2**31 + 5).tolist() == [-2**31 + 8, -2**31 + 1]

    def test_special_functions(self):
        ops = SassOps()
        x = np.array([0.5], np.float32)
        assert ops.fsin(x)[0] == np.sin(np.float32(0.5))
        assert ops.fexp(x)[0] == np.exp(np.float32(0.5))

    def test_memory_ops_copy(self):
        ops = SassOps()
        data = np.arange(5, dtype=np.int32)
        loaded = ops.gld(data)
        assert np.array_equal(loaded, data)
        loaded[0] = 99
        assert data[0] == 0  # gld returned a copy

    def test_iset_flags(self):
        ops = SassOps()
        flags = ops.iset(np.array([1, 5, 3], np.int32), 3, "lt")
        assert flags.tolist() == [1, 0, 0]
        flags = ops.fset(np.array([1.0, 5.0], np.float32), 3.0, "ge")
        assert flags.tolist() == [0, 1]

    def test_bra(self):
        ops = SassOps()
        assert ops.bra(True) is True
        assert ops.bra(False) is False
        assert ops.counts[Opcode.BRA] == 2


class TestTargeting:
    @staticmethod
    def _corrupt_to_99(opcode, golden, operands, is_float):
        return 99.0 if is_float else 99

    def test_exactly_one_element_corrupted(self):
        ops = SassOps(target=12, corruptor=self._corrupt_to_99)
        first = ops.fadd(np.zeros(10, np.float32), np.zeros(10, np.float32))
        second = ops.fadd(np.zeros(10, np.float32),
                          np.zeros(10, np.float32))
        assert np.all(first == 0)
        assert second[2] == 99.0
        assert np.sum(second != 0) == 1
        assert ops.injected is Opcode.FADD

    def test_out_of_range_target_never_fires(self):
        ops = SassOps(target=1000, corruptor=self._corrupt_to_99)
        result = ops.fadd(np.zeros(10, np.float32),
                          np.zeros(10, np.float32))
        assert np.all(result == 0)
        assert ops.injected is None

    def test_corruptor_receives_element_operands(self):
        seen = {}

        def spy(opcode, golden, operands, is_float):
            seen["opcode"] = opcode
            seen["golden"] = golden
            seen["operands"] = operands
            return golden

        ops = SassOps(target=1, corruptor=spy)
        ops.fmul(np.array([2.0, 3.0], np.float32),
                 np.array([10.0, 20.0], np.float32))
        assert seen["opcode"] is Opcode.FMUL
        assert seen["golden"] == 60.0
        assert seen["operands"] == (3.0, 20.0)

    def test_original_array_not_mutated(self):
        ops = SassOps(target=0, corruptor=self._corrupt_to_99)
        a = np.zeros(4, np.float32)
        b = np.zeros(4, np.float32)
        result = ops.fadd(a, b)
        assert result[0] == 99.0
        assert np.all(a == 0)

    def test_bra_corruption_flips_direction(self):
        def flip(opcode, golden, operands, is_float):
            return golden ^ 1

        ops = SassOps(target=0, corruptor=flip)
        assert ops.bra(True) is False


class TestInjectionWindow:
    """Ops outside ``[target, target + span)`` only advance the tally."""

    @staticmethod
    def _corrupt_to_99(opcode, golden, operands, is_float):
        return 99.0 if is_float else 99

    def test_empty_op_inside_the_window_is_not_corrupted(self):
        ops = SassOps(target=1, corruptor=self._corrupt_to_99, span=4)
        ops.gld(np.zeros(2, np.float32))
        ops.gst(np.zeros(0, np.float32))
        assert ops.corrupted_opcodes == [Opcode.GLD]
        assert ops.dynamic_index == 2

    def test_branches_outside_the_window_keep_their_direction(self):
        ops = SassOps(target=2, corruptor=lambda op, g, o, f: g ^ 1)
        assert [ops.bra(c) for c in (True, False, True, False)] == [
            True, False, False, False]
        assert ops.counts[Opcode.BRA] == 4
        assert ops.injected is Opcode.BRA


class TestKnownDefects:
    """Behaviour the op layer should have but does not yet.

    Fixing either changes report bytes, so both wait for a change that
    may regenerate ``perfbench/digests.json`` (DESIGN.md, "SWFI op
    layer").  ``strict=True`` turns an accidental fix into a failure.
    """

    @pytest.mark.xfail(strict=True, reason=(
        "numpy-scalar results: _record corrupts a reshape(-1) copy and "
        "returns the clean scalar"))
    def test_scalar_operand_injection_takes_effect(self):
        ops = SassOps(target=0,
                      corruptor=lambda op, golden, operands, f: 99.0)
        result = ops.fadd(np.float32(1.0), np.float32(2.0))
        assert ops.injected is Opcode.FADD
        assert result == 99.0

    @pytest.mark.xfail(strict=True, reason=(
        "_element indexes broadcast operands by offset % size"))
    def test_broadcast_operands_are_seen_at_the_element_position(self):
        seen = {}

        def spy(opcode, golden, operands, is_float):
            seen["operands"] = operands
            return golden

        a = np.arange(8, dtype=np.float32).reshape(8, 1)
        b = np.arange(100, 108, dtype=np.float32).reshape(1, 8)
        c = np.zeros((8, 8), dtype=np.float32)
        ops = SassOps(target=13, corruptor=spy)  # element (1, 5)
        ops.ffma(a, b, c)
        assert seen["operands"] == (1.0, 105.0, 0.0)
