"""GPU-style iterative quicksort (Table III row 3).

Integer- and control-dominated, matching its Figure 3 profile: pivot
comparisons are ISET flags, element movement is GLD/GST pairs, partition
bookkeeping is IADD, and segment scheduling decisions are BRA.  Every
segment popped off the explicit stack runs a BRA, so a corrupted run
that livelocks ends at the injector's instruction watchdog
(:class:`~repro.swfi.ops.AppHangError` — a DUE); a corrupted comparison
otherwise at worst mis-sorts (an SDC).
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from ..swfi.ops import SassOps
from .base import GPUApplication

__all__ = ["Quicksort"]


class Quicksort(GPUApplication):
    """Iterative quicksort over an int32 array."""

    name = "Quicksort"
    domain = "Sorting"

    def __init__(self, n: int = 2048, seed: int = 0) -> None:
        self.n = n
        self.size_label = f"{n} elements"
        rng = make_rng(seed)
        self.data = rng.integers(-2**20, 2**20, n).astype(np.int32)

    def run(self, ops: SassOps) -> np.ndarray:
        data = ops.gld(self.data).copy()
        stack = [(0, len(data) - 1)]
        while stack:
            lo, hi = stack.pop()
            if not ops.bra(lo < hi):
                continue
            mid = self._partition(ops, data, lo, hi)
            if ops.bra(mid - lo < hi - mid):
                stack.append((mid + 1, hi))
                stack.append((lo, mid - 1))
            else:
                stack.append((lo, mid - 1))
                stack.append((mid + 1, hi))
        return ops.gst(data)

    @staticmethod
    def _partition(ops: SassOps, data: np.ndarray, lo: int, hi: int) -> int:
        """Lomuto partition with vectorised ISET flags and GLD/GST moves."""
        pivot = int(data[hi])
        segment = ops.gld(data[lo:hi])
        flags = ops.iset(segment, pivot, "le")
        below = segment[flags == 1]
        above = segment[flags != 1]
        mid = lo + len(below)
        if len(below):
            data[lo:mid] = ops.gst(below)
        data[mid] = pivot
        if len(above):
            data[mid + 1:hi + 1] = ops.gst(above)
        ops.iadd(np.int32(mid), np.int32(1))
        return mid