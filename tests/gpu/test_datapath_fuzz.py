"""Seeded differential fuzz of the functional-unit datapaths.

Oracles pin the golden-mode datapath semantics per float format:

* ``FP32Unit.fadd``/``fmul`` against numpy ``float32`` arithmetic with
  the unit's G80 conventions applied (FTZ on input and output, every
  NaN canonicalised to ``0x7FC00000``);
* ``FP16Unit.fadd``/``fmul`` against numpy ``float16`` arithmetic (its
  add/mul are single-rounded — both fit a binary32 significand
  exactly), NaNs canonicalised to ``0x7E00``;
* ``BF16Unit.fadd``/``fmul`` against binary32 arithmetic rounded to
  the top half nearest-even (also single-rounded), NaNs to ``0x7FC0``;
* every format's ``ffma`` against an exact :mod:`fractions`-based
  single-rounding fused multiply-add — numpy cannot express the fp32
  one, which is exactly why the fused path deserves its own oracle;
* ``IntUnit`` ops against wrapping numpy ``uint32`` arithmetic.

The fault-parallel replay engine recomputes dirty lanes on these same
scalar units (:func:`repro.rtl.vectorized.vector_compute`), so the
oracles here pin the replay datapath too; its equivalence with the
scalar injector is tested end to end in ``tests/rtl/test_vectorized.py``.

Operands are raw bit patterns with a forced share of specials
(Inf/NaN exponents, denormals, zeros), not just well-behaved floats.
"""

from fractions import Fraction

import numpy as np

from repro.gpu.bits import float_to_bits
from repro.gpu.fault_plane import FaultPlane
from repro.gpu.fp32 import BF16Unit, FP16Unit, FP32Unit
from repro.gpu.intu import IntUnit
from repro.gpu.isa import Opcode

N_CASES = 2500
_QNAN = 0x7FC00000
_EXP = 0x7F800000
_MANT = 0x007FFFFF
_SIGN = 0x80000000


def _operands(seed, n=N_CASES):
    """Raw uint32 operand stream with ~1/2 specials mixed in."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 32, size=n, dtype=np.uint32)
    shape = rng.integers(0, 4, size=n)
    bits = np.where(shape == 1, (bits & 0x807FFFFF) | _EXP, bits)  # Inf/NaN
    bits = np.where(shape == 2, bits & 0x807FFFFF, bits)           # denorm/0
    return bits


def _units():
    plane = FaultPlane()
    return FP32Unit(plane, 8), IntUnit(plane, 8)


# -- numpy float32 reference (G80 conventions) -------------------------------
def _np_f32(op, a_bits, b_bits):
    def flush(bits):
        return np.where((bits & _EXP) == 0, bits & _SIGN, bits)

    with np.errstate(all="ignore"):
        a = flush(a_bits).view(np.float32)
        b = flush(b_bits).view(np.float32)
        out = (a + b if op is Opcode.FADD else a * b).view(np.uint32)
    nan = ((out & _EXP) == _EXP) & ((out & _MANT) != 0)
    out = np.where(nan, np.uint32(_QNAN), out)
    denormal = ((out & _EXP) == 0) & ((out & _MANT) != 0)
    return np.where(denormal, out & _SIGN, out)


# -- exact fused multiply-add reference --------------------------------------
# Parameterized over (exponent bits, mantissa bits) so one oracle pins
# the fused path of every float format the datapath supports.
def _decompose_fmt(bits, exp_bits, mant_bits):
    bias = (1 << (exp_bits - 1)) - 1
    exp_mask = (1 << exp_bits) - 1
    sign = bits >> (exp_bits + mant_bits)
    exp = (bits >> mant_bits) & exp_mask
    mant = bits & ((1 << mant_bits) - 1)
    if exp == exp_mask:
        return ("nan" if mant else "inf", sign, None)
    if exp == 0:  # FTZ input
        return ("num", sign, Fraction(0))
    return ("num", sign,
            Fraction((1 << mant_bits) | mant, 1 << mant_bits)
            * Fraction(2) ** (exp - bias))


def _round_fmt(sign, magnitude, exp_bits, mant_bits):
    """Round a positive Fraction to format bits: RNE, FTZ, Inf overflow."""
    bias = (1 << (exp_bits - 1)) - 1
    exp_mask = (1 << exp_bits) - 1
    sign_shift = exp_bits + mant_bits
    mant_mask = (1 << mant_bits) - 1
    exp = 0
    while Fraction(2) ** exp > magnitude:
        exp -= 1
    while Fraction(2) ** (exp + 1) <= magnitude:
        exp += 1
    if exp < 1 - bias:
        # denormal range: round on the denormal grid, then flush to zero
        q = magnitude / Fraction(2) ** (1 - bias - mant_bits)
        integer = int(q)
        rem = q - integer
        if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and integer & 1):
            integer += 1
        if integer >= 1 << mant_bits:  # rounded up into smallest normal
            return (sign << sign_shift) | (1 << mant_bits)
        return sign << sign_shift
    q = magnitude / Fraction(2) ** (exp - mant_bits)
    integer = int(q)
    rem = q - integer
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and integer & 1):
        integer += 1
    if integer >= 1 << (mant_bits + 1):
        integer >>= 1
        exp += 1
    if exp > bias:
        return (sign << sign_shift) | (exp_mask << mant_bits)
    return ((sign << sign_shift) | ((exp + bias) << mant_bits)
            | (integer & mant_mask))


def exact_fma_fmt(a_bits, b_bits, c_bits, exp_bits, mant_bits):
    """Single-rounding fused multiply-add with G80 FTZ/NaN conventions."""
    exp_mask = (1 << exp_bits) - 1
    sign_shift = exp_bits + mant_bits
    inf = exp_mask << mant_bits
    qnan = inf | (1 << (mant_bits - 1))
    sign_bit = 1 << sign_shift
    da, db, dc = (_decompose_fmt(x, exp_bits, mant_bits)
                  for x in (a_bits, b_bits, c_bits))
    if "nan" in (da[0], db[0], dc[0]):
        return qnan
    if da[0] == "inf" or db[0] == "inf":
        other = db if da[0] == "inf" else da
        if other[0] == "num" and other[2] == 0:
            return qnan  # Inf x 0
        product_sign = da[1] ^ db[1]
        if dc[0] == "inf" and dc[1] != product_sign:
            return qnan  # Inf - Inf
        return (product_sign << sign_shift) | inf
    if dc[0] == "inf":
        return (dc[1] << sign_shift) | inf
    product = (-1) ** da[1] * da[2] * (-1) ** db[1] * db[2]
    addend = (-1) ** dc[1] * dc[2]
    exact = product + addend
    if exact == 0:
        if product == 0 and addend == 0:
            # both zero: IEEE keeps -0 only when every term is negative
            return (da[1] ^ db[1]) & dc[1] and sign_bit or 0
        return 0  # exact cancellation rounds to +0 in round-to-nearest
    sign = 0 if exact > 0 else 1
    return _round_fmt(sign, abs(exact), exp_bits, mant_bits)


def exact_fma(a_bits, b_bits, c_bits):
    """Single-rounding float32 FMA with G80 FTZ/NaN conventions."""
    return exact_fma_fmt(a_bits, b_bits, c_bits, 8, 23)


# -- the fuzz ----------------------------------------------------------------
class TestFp32DifferentialFuzz:
    def test_fadd_matches_numpy_float32(self):
        fp32, _ = _units()
        a, b = _operands(11), _operands(12)
        want = _np_f32(Opcode.FADD, a, b)
        for i in range(N_CASES):
            assert fp32.fadd(int(a[i]), int(b[i]), 0) == int(want[i]), \
                f"fadd({int(a[i]):#010x}, {int(b[i]):#010x})"

    def test_fmul_matches_numpy_float32(self):
        fp32, _ = _units()
        a, b = _operands(21), _operands(22)
        want = _np_f32(Opcode.FMUL, a, b)
        for i in range(N_CASES):
            assert fp32.fmul(int(a[i]), int(b[i]), 0) == int(want[i]), \
                f"fmul({int(a[i]):#010x}, {int(b[i]):#010x})"

    def test_ffma_matches_exact_single_rounding(self):
        fp32, _ = _units()
        a, b, c = _operands(31), _operands(32), _operands(33)
        for i in range(N_CASES):
            got = fp32.ffma(int(a[i]), int(b[i]), int(c[i]), 0)
            want = exact_fma(int(a[i]), int(b[i]), int(c[i]))
            assert got == want, (
                f"ffma({int(a[i]):#010x}, {int(b[i]):#010x}, "
                f"{int(c[i]):#010x}): unit {got:#010x} != exact "
                f"{want:#010x}")


class TestIntDifferentialFuzz:
    def test_int_ops_match_numpy_uint32(self):
        _, intu = _units()
        a, b, c = _operands(41), _operands(42), _operands(43)
        with np.errstate(all="ignore"):
            refs = {
                "iadd": a + b,
                "imul": a * b,
                "imad": a * b + c,
                "shl": a << (b & np.uint32(31)),
                "shr": a >> (b & np.uint32(31)),
                "and": a & b,
                "or": a | b,
                "xor": a ^ b,
            }
        for i in range(N_CASES):
            x, y, z = int(a[i]), int(b[i]), int(c[i])
            assert intu.iadd(x, y, 0) == int(refs["iadd"][i])
            assert intu.imul(x, y, 0) == int(refs["imul"][i])
            assert intu.imad(x, y, z, 0) == int(refs["imad"][i])
            assert intu.shl(x, y, 0) == int(refs["shl"][i])
            assert intu.shr(x, y, 0) == int(refs["shr"][i])
            for lop in ("and", "or", "xor"):
                assert intu.lop(lop.upper(), x, y, 0) == int(refs[lop][i])


class TestFfmaSpecialCases:
    """Pinned FFMA special-value semantics (the collapsed dead branch in
    ``_fma_special`` made ``c_exp == 0`` addends take the fused path)."""

    @staticmethod
    def _ffma(a, b, c):
        fp32, _ = _units()
        return fp32.ffma(float_to_bits(a) if isinstance(a, float) else a,
                         float_to_bits(b) if isinstance(b, float) else b,
                         float_to_bits(c) if isinstance(c, float) else c, 0)

    def test_zero_addend_takes_fused_path(self):
        # a*b + (+-0) must equal the rounded product, not zero
        assert self._ffma(1.5, 2.0, 0.0) == float_to_bits(3.0)
        assert self._ffma(1.5, 2.0, -0.0) == float_to_bits(3.0)
        assert self._ffma(-1.5, 2.0, 0.0) == float_to_bits(-3.0)

    def test_zero_times_anything_plus_addend(self):
        assert self._ffma(0.0, 123.25, 7.5) == float_to_bits(7.5)
        # (+0)*(x) + (-0): product +0, addend -0 -> +0 under RN
        assert self._ffma(0.0, 123.25, -0.0) == float_to_bits(0.0)
        # (-0)*(x) + (-0): product -0, addend -0 -> -0
        assert self._ffma(-0.0, 123.25, -0.0) == float_to_bits(-0.0)

    def test_inf_times_zero_is_qnan(self):
        assert self._ffma(float("inf"), 0.0, 1.0) == _QNAN
        assert self._ffma(0.0, float("-inf"), 1.0) == _QNAN

    def test_inf_product_with_opposite_inf_addend_is_qnan(self):
        assert self._ffma(float("inf"), 2.0, float("-inf")) == _QNAN
        assert self._ffma(float("-inf"), 2.0, float("inf")) == _QNAN
        # same-signed infinities accumulate
        assert self._ffma(float("inf"), 2.0, float("inf")) == \
            float_to_bits(float("inf"))

    def test_finite_product_with_inf_addend(self):
        assert self._ffma(3.0, 4.0, float("-inf")) == \
            float_to_bits(float("-inf"))

    def test_specials_agree_with_exact_oracle(self):
        specials = [float_to_bits(v) for v in
                    (0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"),
                     float("nan"), 2.0**-126, 3.5)]
        fp32, _ = _units()
        for a in specials:
            for b in specials:
                for c in specials:
                    assert fp32.ffma(a, b, c, 0) == exact_fma(a, b, c)


# -- reduced-precision formats ------------------------------------------------
def _operands16(seed, exp_mask, n=N_CASES):
    """Raw 16-bit operand stream with ~1/2 specials mixed in."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 16, size=n, dtype=np.uint32)
    shape = rng.integers(0, 4, size=n)
    nonexp = np.uint32(0xFFFF & ~exp_mask)
    bits = np.where(shape == 1, (bits & nonexp) | exp_mask, bits)  # Inf/NaN
    bits = np.where(shape == 2, bits & nonexp, bits)               # denorm/0
    return bits


def _np_f16(op, a_bits, b_bits):
    """numpy float16 reference with the unit's G80 conventions."""
    def flush(bits):
        return np.where((bits & 0x7C00) == 0, bits & 0x8000, bits)

    with np.errstate(all="ignore"):
        a = flush(a_bits).astype(np.uint16).view(np.float16)
        b = flush(b_bits).astype(np.uint16).view(np.float16)
        out = (a + b if op is Opcode.FADD else a * b)
        out = out.view(np.uint16).astype(np.uint32)
    nan = ((out & 0x7C00) == 0x7C00) & ((out & 0x03FF) != 0)
    out = np.where(nan, np.uint32(0x7E00), out)
    denormal = ((out & 0x7C00) == 0) & ((out & 0x03FF) != 0)
    return np.where(denormal, out & np.uint32(0x8000), out)


def _np_bf16(op, a_bits, b_bits):
    """binary32-emulated bfloat16 reference (single-rounded add/mul)."""
    def flush(bits):
        return np.where((bits & 0x7F80) == 0, bits & 0x8000, bits)

    with np.errstate(all="ignore"):
        a = (flush(a_bits) << np.uint32(16)).view(np.float32)
        b = (flush(b_bits) << np.uint32(16)).view(np.float32)
        wide = (a + b if op is Opcode.FADD else a * b)
        bits32 = wide.view(np.uint32)
    nan = np.isnan(wide)
    rounding = np.uint32(0x7FFF) + ((bits32 >> np.uint32(16)) & np.uint32(1))
    out = ((bits32 + rounding) >> np.uint32(16)) & np.uint32(0xFFFF)
    out = np.where(nan, np.uint32(0x7FC0), out)
    denormal = ((out & 0x7F80) == 0) & ((out & 0x007F) != 0)
    return np.where(denormal, out & np.uint32(0x8000), out)


class TestFp16DifferentialFuzz:
    """FP16Unit vs the numpy float16 oracle and the exact fused FMA."""

    def test_fadd_fmul_match_numpy_float16(self):
        unit = FP16Unit(FaultPlane(), 8)
        a, b = _operands16(91, 0x7C00), _operands16(92, 0x7C00)
        for op, fn in ((Opcode.FADD, unit.fadd), (Opcode.FMUL, unit.fmul)):
            want = _np_f16(op, a, b)
            for i in range(N_CASES):
                assert fn(int(a[i]), int(b[i]), 0) == int(want[i]), \
                    f"{op}({int(a[i]):#06x}, {int(b[i]):#06x})"

    def test_ffma_matches_exact_single_rounding(self):
        unit = FP16Unit(FaultPlane(), 8)
        a = _operands16(93, 0x7C00)
        b = _operands16(94, 0x7C00)
        c = _operands16(95, 0x7C00)
        for i in range(N_CASES):
            got = unit.ffma(int(a[i]), int(b[i]), int(c[i]), 0)
            want = exact_fma_fmt(int(a[i]), int(b[i]), int(c[i]), 5, 10)
            assert got == want, (
                f"fp16 ffma({int(a[i]):#06x}, {int(b[i]):#06x}, "
                f"{int(c[i]):#06x}): unit {got:#06x} != exact {want:#06x}")

    def test_special_value_pins(self):
        unit = FP16Unit(FaultPlane(), 8)
        # every NaN canonicalises to 0x7E00; denormals flush in and out
        assert unit.fadd(0x7C01, 0x3C00, 0) == 0x7E00  # sNaN + 1.0
        assert unit.fmul(0x7C00, 0x0000, 0) == 0x7E00  # Inf * 0
        assert unit.fadd(0x0001, 0x8001, 0) == 0x0000  # denorm FTZ in
        assert unit.fmul(0x0400, 0x3800, 0) == 0x0000  # underflow FTZ out
        assert unit.fmul(0x7BFF, 0x7BFF, 0) == 0x7C00  # overflow -> Inf


class TestBf16DifferentialFuzz:
    """BF16Unit vs the f32-emulated oracle and the exact fused FMA."""

    def test_fadd_fmul_match_f32_emulation(self):
        unit = BF16Unit(FaultPlane(), 8)
        a, b = _operands16(101, 0x7F80), _operands16(102, 0x7F80)
        for op, fn in ((Opcode.FADD, unit.fadd), (Opcode.FMUL, unit.fmul)):
            want = _np_bf16(op, a, b)
            for i in range(N_CASES):
                assert fn(int(a[i]), int(b[i]), 0) == int(want[i]), \
                    f"{op}({int(a[i]):#06x}, {int(b[i]):#06x})"

    def test_ffma_matches_exact_single_rounding(self):
        unit = BF16Unit(FaultPlane(), 8)
        a = _operands16(103, 0x7F80)
        b = _operands16(104, 0x7F80)
        c = _operands16(105, 0x7F80)
        for i in range(N_CASES):
            got = unit.ffma(int(a[i]), int(b[i]), int(c[i]), 0)
            want = exact_fma_fmt(int(a[i]), int(b[i]), int(c[i]), 8, 7)
            assert got == want, (
                f"bf16 ffma({int(a[i]):#06x}, {int(b[i]):#06x}, "
                f"{int(c[i]):#06x}): unit {got:#06x} != exact {want:#06x}")

    def test_special_value_pins(self):
        unit = BF16Unit(FaultPlane(), 8)
        assert unit.fadd(0x7F81, 0x3F80, 0) == 0x7FC0  # sNaN + 1.0
        assert unit.fmul(0x7F80, 0x0000, 0) == 0x7FC0  # Inf * 0
        assert unit.fadd(0x0001, 0x8001, 0) == 0x0000  # denorm FTZ in
        assert unit.fmul(0x0080, 0x3F00, 0) == 0x0000  # underflow FTZ out
        assert unit.fmul(0x7F7F, 0x7F7F, 0) == 0x7F80  # overflow -> Inf
