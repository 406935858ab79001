"""Instrumented SASS-level operation layer (the NVBitFI substitute).

NVBitFI instruments a real binary's SASS stream: it counts the dynamic
instructions a kernel executes, picks one at random, and corrupts that
instruction's destination register before execution continues.  Binary
instrumentation is not reproducible in pure Python, so applications in
this library are written against this explicit op layer instead: every
arithmetic/memory/control SASS-equivalent goes through a :class:`SassOps`
method, which

* in **profile** mode counts dynamic instructions per opcode (one per
  array element — Figure 3's profiles), and
* in **inject** mode corrupts the output of exactly one chosen dynamic
  instruction using a pluggable fault model, then lets execution continue
  — precisely NVBitFI's observable semantics.

Fault-free, every op computes the same float32/int32 result a GPU kernel
would (numpy single-precision semantics).  Reduced-precision apps
construct the layer with ``precision="fp16"`` or ``"bf16"``: float ops
then compute in that format (fp16 through ``np.float16``; bf16 as
binary32 arrays re-rounded to the top 16 bits after every op, the way
mixed-precision tensor kernels accumulate), while integer and control
ops are unchanged.

Injectors and the profiler run an application with :meth:`SassOps.run`,
which holds the IEEE policy for the whole run: corrupted values
legitimately overflow or turn NaN downstream and the GPU does not trap,
so every numpy operation of the run, inside the ops or in the app's own
glue code, executes under one ``np.errstate(all="ignore")`` scope.  The
ops themselves set no floating-point policy; calling
``app.run(SassOps())`` directly gets numpy's default warnings.

Every op is on the hot path of a campaign (each injection re-runs the
whole app), so an op only pays for what it needs: operands already in the
storage dtype are not cast, and an op wholly outside the injection window
only advances the opcode tally and the dynamic index.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..gpu.isa import Opcode

__all__ = ["SassOps", "ArrayLike"]

ArrayLike = Union[np.ndarray, float, int]

#: Opcodes the software injector can target (the characterised twelve).
INJECTABLE_OPCODES = (
    Opcode.FADD, Opcode.FMUL, Opcode.FFMA,
    Opcode.IADD, Opcode.IMUL, Opcode.IMAD,
    Opcode.FSIN, Opcode.FEXP,
    Opcode.GLD, Opcode.GST,
    Opcode.BRA, Opcode.ISET,
)


class SassOps:
    """Instrumented vectorised SASS operations.

    ``corruptor`` is ``None`` for plain/profile execution, or a callable
    ``(opcode, golden_value, operands, is_float) -> corrupted_value``
    applied to the single targeted dynamic instruction.  ``target`` is the
    global dynamic-instruction index (over injectable opcodes only) whose
    output gets corrupted.  ``precision`` selects the float format the
    arithmetic ops compute in; corruptors receive their precision at
    model-bind time (:meth:`repro.swfi.models.FaultModel.__call__`), so
    the corruptor protocol itself is unchanged.  ``target``, ``corruptor``
    and ``span`` are fixed at construction.
    """

    def __init__(self, target: Optional[int] = None,
                 corruptor: Optional[Callable] = None,
                 span: int = 1, precision: str = "fp32") -> None:
        if span < 1:
            raise ValueError("span must be at least 1")
        if precision not in ("fp32", "fp16", "bf16"):
            raise ValueError(f"unknown float precision {precision!r}")
        self.precision = precision
        self._float_dtype = np.dtype(np.float16 if precision == "fp16"
                                     else np.float32)
        self.counts: Dict[Opcode, int] = {op: 0 for op in Opcode}
        self.other_count = 0
        self.dynamic_index = 0  # position over injectable opcodes
        self.target = target
        self.corruptor = corruptor
        #: dynamic instructions corrupted starting at ``target``: adjacent
        #: dynamic instructions of one op are adjacent SIMT threads, so a
        #: span > 1 models the multi-thread corruption the RTL campaigns
        #: attribute to scheduler/pipeline control faults
        self.span = span
        #: opcode of the *targeted* instruction (the one at ``target``);
        #: a span crossing an op boundary corrupts later ops too, but the
        #: injection is attributed to the first
        self.injected: Optional[Opcode] = None
        #: every opcode that had at least one element corrupted, in
        #: execution order (len > 1 iff the span crossed an op boundary)
        self.corrupted_opcodes: List[Opcode] = []
        self.n_corrupted = 0
        #: the dynamic indices ``[lo, hi)`` whose outputs are corrupted;
        #: empty (every index is past it) when nothing is targeted
        if target is None or corruptor is None:
            self._window_lo = self._window_hi = 0
        else:
            self._window_lo, self._window_hi = target, target + span

    def run(self, app, **kwargs):
        """Execute *app* through this layer under the per-run IEEE policy.

        The one entry point every runner uses: ``app.run(self, **kwargs)``
        inside a single ``np.errstate(all="ignore")`` scope, so overflow,
        NaN and division by zero from corrupted values never warn or trap
        anywhere in the run.
        """
        with np.errstate(all="ignore"):
            return app.run(self, **kwargs)

    # -- bookkeeping ------------------------------------------------------------
    @property
    def injectable_total(self) -> int:
        return self.dynamic_index

    @property
    def total(self) -> int:
        return self.dynamic_index + self.other_count

    def profile(self) -> Dict[Opcode, int]:
        """Dynamic opcode histogram (the Figure 3 data for one app)."""
        return {op: n for op, n in self.counts.items() if n > 0}

    def other(self, count: int = 1) -> None:
        """Account for uncharacterised instructions (Fig. 3's "Others")."""
        self.other_count += int(count)

    # -- core instrumentation ------------------------------------------------------
    def _record(self, opcode: Opcode, result: np.ndarray,
                operands: "tuple", is_float: bool) -> np.ndarray:
        """Count *n* dynamic instructions; corrupt one element if targeted."""
        n = result.size
        self.counts[opcode] += n
        start = self.dynamic_index
        self.dynamic_index = end = start + n
        if start >= self._window_hi or end <= self._window_lo:
            return result  # wholly outside the window: counter only
        return self._corrupt(opcode, result, operands, is_float, start)

    def _corrupt(self, opcode: Opcode, result: np.ndarray,
                 operands: "tuple", is_float: bool,
                 start: int) -> np.ndarray:
        """Corrupt the elements of one op that fall inside the window.

        The window may have started in an earlier op (a multi-thread span
        crossing an op boundary); the injection is attributed to the
        first op it corrupts.
        """
        lo = max(self._window_lo, start)
        hi = min(self._window_hi, start + result.size)
        if lo >= hi:
            return result
        result = result.copy()
        flat = result.reshape(-1)
        for index in range(lo - start, hi - start):
            element_operands = tuple(
                _element(op, index) for op in operands)
            flat[index] = self.corruptor(
                opcode, flat[index].item(), element_operands, is_float)
            self.n_corrupted += 1
        self.corrupted_opcodes.append(opcode)
        if self.injected is None:
            self.injected = opcode
        return result

    # -- float coercion and rounding ------------------------------------------------
    def _fp(self, value: ArrayLike) -> np.ndarray:
        """Coerce an operand into the layer's float storage format."""
        if self.precision == "bf16":
            return _bf16_quantize(np.asarray(value, dtype=np.float32))
        if getattr(value, "dtype", None) == self._float_dtype:
            return np.asarray(value)  # already stored: no cast
        return np.asarray(value, dtype=self._float_dtype)

    def _fq(self, result: np.ndarray) -> np.ndarray:
        """Round a float op result to the storage format (bf16 only —
        fp16/fp32 results are already produced in their dtype)."""
        if self.precision == "bf16":
            return _bf16_quantize(result)
        return result

    # -- float arithmetic -----------------------------------------------------------
    def fadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = self._fp(a), self._fp(b)
        return self._record(Opcode.FADD, self._fq(a + b), (a, b), True)

    def fmul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = self._fp(a), self._fp(b)
        return self._record(Opcode.FMUL, self._fq(a * b), (a, b), True)

    def ffma(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        a, b, c = self._fp(a), self._fp(b), self._fp(c)
        if self.precision == "fp16":
            # fused: the binary32 product+sum is exact enough that
            # the final cast is the single rounding (2p+2 <= 24)
            result = (a.astype(np.float32) * b.astype(np.float32)
                      + c.astype(np.float32)).astype(np.float16)
        else:
            # bf16 FMA accumulates in binary32 and rounds once, the
            # way tensor-core mixed-precision kernels do
            result = self._fq(a * b + c)
        return self._record(Opcode.FFMA, result, (a, b, c), True)

    # -- int32 arithmetic ----------------------------------------------------------------
    def iadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record(Opcode.IADD, a + b, (a, b), False)

    def imul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record(Opcode.IMUL, a * b, (a, b), False)

    def imad(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        a, b, c = _i32(a), _i32(b), _i32(c)
        return self._record(Opcode.IMAD, a * b + c, (a, b, c), False)

    # -- special functions ------------------------------------------------------------------
    def fsin(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        result = self._fq(np.sin(a, dtype=self._float_dtype))
        return self._record(Opcode.FSIN, result, (a,), True)

    def fexp(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        result = self._fq(np.exp(a, dtype=self._float_dtype))
        return self._record(Opcode.FEXP, result, (a,), True)

    # -- memory movement -----------------------------------------------------------------------
    def gld(self, values: np.ndarray) -> np.ndarray:
        """Global load: one GLD per element read."""
        values = np.asarray(values)
        return self._record(Opcode.GLD, values.copy(), (values,),
                            values.dtype.kind == "f")

    def gst(self, values: np.ndarray) -> np.ndarray:
        """Global store: one GST per element written; returns store data."""
        values = np.asarray(values)
        return self._record(Opcode.GST, values.copy(), (values,),
                            values.dtype.kind == "f")

    # -- extended (profiled, not injectable) opcodes --------------------------------
    def _record_extended(self, opcode: Opcode,
                         result: np.ndarray) -> np.ndarray:
        """Count dynamic instructions outside the characterised twelve.

        They appear in the Figure 3 profile (under "Others") but are not
        injection targets: the paper only injects the opcodes its RTL
        campaigns characterised.
        """
        self.counts[opcode] += result.size
        return result

    def rcp(self, a: ArrayLike) -> np.ndarray:
        """MUFU.RCP: reciprocal on the SFU path."""
        a = self._fp(a)
        result = (np.float32(1.0) / a.astype(np.float32)).astype(
            self._float_dtype)
        return self._record_extended(Opcode.RCP, self._fq(result))

    def shl(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        return self._record_extended(Opcode.SHL, np.left_shift(a, b & 31))

    def shr(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        a, b = _i32(a), _i32(b)
        unsigned = a.astype(np.uint32) >> (b & 31).astype(np.uint32)
        return self._record_extended(
            Opcode.SHR, unsigned.astype(np.int32))

    def lop_and(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(Opcode.LOP_AND, _i32(a) & _i32(b))

    def lop_or(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(Opcode.LOP_OR, _i32(a) | _i32(b))

    def lop_xor(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self._record_extended(Opcode.LOP_XOR, _i32(a) ^ _i32(b))

    def f2i(self, a: ArrayLike) -> np.ndarray:
        a = self._fp(a)
        return self._record_extended(
            Opcode.F2I, np.nan_to_num(a).astype(np.int32))

    def i2f(self, a: ArrayLike) -> np.ndarray:
        return self._record_extended(
            Opcode.I2F, self._fq(_i32(a).astype(self._float_dtype)))

    # -- control flow ------------------------------------------------------------------------------
    def iset(self, a: ArrayLike, b: ArrayLike, op: str = "lt") -> np.ndarray:
        """Integer set: elementwise comparison producing int32 0/1 flags."""
        a, b = _i32(a), _i32(b)
        compare = _COMPARATORS[op]
        flags = compare(a, b).astype(np.int32)
        return self._record(Opcode.ISET, flags, (a, b), False)

    def fset(self, a: ArrayLike, b: ArrayLike, op: str = "lt") -> np.ndarray:
        """Float comparison producing int32 flags (counted as ISET)."""
        a, b = self._fp(a), self._fp(b)
        compare = _COMPARATORS[op]
        flags = compare(a, b).astype(np.int32)
        return self._record(Opcode.ISET, flags, (a, b), False)

    def bra(self, condition: bool) -> bool:
        """Branch: one dynamic BRA; corruption flips the direction."""
        self.counts[Opcode.BRA] += 1
        index = self.dynamic_index
        self.dynamic_index = index + 1
        if index >= self._window_hi or index < self._window_lo:
            return bool(condition)  # outside the window: counter only
        flag = np.array([1 if condition else 0], dtype=np.int32)
        flag = self._corrupt(Opcode.BRA, flag, (flag,), False, index)
        return bool(flag[0] & 1)


_INT32 = np.dtype(np.int32)


def _i32(value: ArrayLike) -> np.ndarray:
    if getattr(value, "dtype", None) == _INT32:
        return np.asarray(value)  # already int32: no cast
    return np.asarray(value, dtype=np.int64).astype(np.int32)


def _bf16_quantize(values: np.ndarray) -> np.ndarray:
    """Round binary32 values to bfloat16, kept in a binary32 array.

    Nearest-even on the top 16 bits, the storage convention mixed-
    precision kernels use for bf16 tensors on hardware without a native
    numpy dtype.  NaNs map to the canonical quiet NaN.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    bits = values.view(np.uint32)
    rounding = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    rounded = (bits + rounding) & np.uint32(0xFFFF0000)
    rounded = np.where(np.isnan(values), np.uint32(0x7FC00000), rounded)
    return rounded.view(np.float32).reshape(values.shape)


def _element(operand: np.ndarray, offset: int):
    arr = np.asarray(operand)
    if arr.size == 1:
        return arr.reshape(-1)[0].item()
    return arr.reshape(-1)[offset % arr.size].item()


_COMPARATORS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}
