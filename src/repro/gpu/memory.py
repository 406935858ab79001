"""Memory structures of the streaming multiprocessor.

The paper *excludes* memories (register file, caches, shared memory) from
fault injection because GPUs deployed with strict reliability requirements
protect them with ECC, and a memory fault's syndrome is the well-understood
single/double bit-flip.  Accordingly these structures are **not** declared
on the fault plane — they are plain, reliable storage — but they do detect
illegal accesses, which is one of the ways corrupted control state becomes
a DUE.
"""

from __future__ import annotations

from typing import Iterable, List

from ..errors import MemoryFaultError, RegisterFaultError
from .bits import MASK32, bits_to_float, float_to_bits

__all__ = ["GlobalMemory", "RegisterFile"]


class GlobalMemory:
    """Word-addressed (32-bit) global memory with bounds checking."""

    def __init__(self, n_words: int) -> None:
        if n_words <= 0:
            raise ValueError("memory size must be positive")
        self.n_words = n_words
        self._words: List[int] = [0] * n_words

    def load(self, address: int) -> int:
        self._check(address)
        return self._words[address]

    def store(self, address: int, value: int) -> None:
        self._check(address)
        self._words[address] = value & MASK32

    def load_float(self, address: int) -> float:
        return bits_to_float(self.load(address))

    def store_float(self, address: int, value: float) -> None:
        self.store(address, float_to_bits(value))

    def write_words(self, base: int, values: Iterable[int]) -> None:
        for offset, value in enumerate(values):
            self.store(base + offset, value)

    def write_floats(self, base: int, values: Iterable[float]) -> None:
        for offset, value in enumerate(values):
            self.store_float(base + offset, value)

    def read_words(self, base: int, count: int) -> List[int]:
        return [self.load(base + i) for i in range(count)]

    def read_floats(self, base: int, count: int) -> List[float]:
        return [self.load_float(base + i) for i in range(count)]

    def snapshot(self) -> List[int]:
        """Copy of the full memory contents (for golden comparison)."""
        return list(self._words)

    def restore(self, words: List[int]) -> None:
        """Overwrite the contents with a :meth:`snapshot` (copied)."""
        self._words = list(words)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.n_words:
            raise MemoryFaultError(
                f"access to word address {address:#x} outside the "
                f"{self.n_words}-word global memory")


class RegisterFile:
    """Per-thread general-purpose registers and 1-bit predicate registers.

    ECC-protected by default, matching the paper's assumption for GPUs in
    reliability-critical deployments: not an injection target, but an
    out-of-range index (produced by corrupted pipeline control registers)
    raises :class:`~repro.errors.RegisterFaultError`, which the campaign
    classifies as a DUE.

    With ``ecc=False`` and a fault plane, every register write is routed
    through the plane under the module name ``"register_file"`` — the
    experiment that *validates* the paper's premise (Fig. 1) that a
    memory-cell fault translates directly into a bit-flipped value with
    no further transformation: its output syndrome is exactly the
    single-bit-flip model software injectors traditionally use.
    """

    N_PREDICATES = 8
    MODULE = "register_file"

    def __init__(self, n_threads: int, n_registers: int = 64,
                 plane=None, ecc: bool = True) -> None:
        self.n_threads = n_threads
        self.n_registers = n_registers
        self._regs: List[List[int]] = [
            [0] * n_registers for _ in range(n_threads)
        ]
        self._preds: List[List[bool]] = [
            [False] * self.N_PREDICATES for _ in range(n_threads)
        ]
        self._plane = None
        if plane is not None and not ecc:
            from .fault_plane import FlipFlop

            self._plane = plane
            for thread in range(n_threads):
                for index in range(n_registers):
                    plane.declare(FlipFlop(
                        self.MODULE, f"r{index}", 32, thread, "data"))

    def read(self, thread: int, index: int) -> int:
        self._check(thread, index)
        if self._plane is not None:
            self._resolve_fault(thread, index, erase=False)
        return self._regs[thread][index]

    def write(self, thread: int, index: int, value: int) -> None:
        self._check(thread, index)
        if self._plane is not None:
            # a pending flip on this cell is overwritten before any read
            # could consume it: it fired, but left no trace (masked)
            self._resolve_fault(thread, index, erase=True)
        self._regs[thread][index] = value & MASK32

    def _resolve_fault(self, thread: int, index: int, erase: bool) -> None:
        """SRAM semantics: flip the stored cell at the injection instant.

        The flip becomes visible at the first *read* of the cell after the
        fault cycle; a *write* landing first erases it.  Either way the
        transient is consumed exactly once.
        """
        armed = self._plane.armed_fault
        if armed is None or armed.fired_cycle is not None:
            return
        ff = armed.flipflop
        if (ff.module != self.MODULE or ff.lane != thread
                or ff.name != f"r{index}"):
            return
        if self._plane.cycle < armed.cycle:
            return
        armed.fired_cycle = self._plane.cycle
        if not erase:
            self._regs[thread][index] ^= armed.mask

    def snapshot(self) -> "tuple[List[List[int]], List[List[bool]]]":
        """Copy of every register and predicate value."""
        return ([list(row) for row in self._regs],
                [list(row) for row in self._preds])

    def restore(self, snapshot: "tuple[List[List[int]], List[List[bool]]]"
                ) -> None:
        """Overwrite the values with a :meth:`snapshot` (copied)."""
        regs, preds = snapshot
        self._regs = [list(row) for row in regs]
        self._preds = [list(row) for row in preds]

    def read_predicate(self, thread: int, index: int) -> bool:
        self._check_pred(thread, index)
        return self._preds[thread][index]

    def write_predicate(self, thread: int, index: int, value: bool) -> None:
        self._check_pred(thread, index)
        self._preds[thread][index] = bool(value)

    def _check(self, thread: int, index: int) -> None:
        if not 0 <= thread < self.n_threads:
            raise RegisterFaultError(f"thread {thread} out of range")
        if not 0 <= index < self.n_registers:
            raise RegisterFaultError(
                f"register R{index} outside the {self.n_registers}-register "
                "file")

    def _check_pred(self, thread: int, index: int) -> None:
        if not 0 <= thread < self.n_threads:
            raise RegisterFaultError(f"thread {thread} out of range")
        if not 0 <= index < self.N_PREDICATES:
            raise RegisterFaultError(f"predicate P{index} out of range")
