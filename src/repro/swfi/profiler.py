"""Dynamic SASS profiles of applications (Figure 3).

NVBitFI's first pass profiles the compiled kernels, listing all executed
SASS instructions; the paper groups them into FP32, INT32, Special
Functions, Control (memory + branch + set) and "Others", showing the 12
characterised opcodes cover >70% of executed instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..gpu.isa import (
    CHARACTERIZED_OPCODES,
    CONTROL_OPCODES,
    FP32_OPCODES,
    INT_OPCODES,
    MEMORY_OPCODES,
    Opcode,
    SFU_OPCODES,
)
from .ops import SassOps

__all__ = ["InstructionProfile", "profile_application", "GROUPS"]

#: Figure 3's instruction groups.
GROUPS: Dict[str, "tuple"] = {
    "FP32": FP32_OPCODES,
    "INT32": INT_OPCODES,
    "SF": SFU_OPCODES,
    "Control": MEMORY_OPCODES + CONTROL_OPCODES,
}


@dataclass(frozen=True)
class InstructionProfile:
    """Dynamic instruction mix of one application."""

    app_name: str
    counts: Dict[Opcode, int]
    other_count: int

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.other_count

    def fraction(self, opcode: Opcode) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(opcode, 0) / self.total

    def group_fractions(self) -> Dict[str, float]:
        """Fractions per Figure 3 group, plus "Others".

        "Others" collects both untracked instructions (``ops.other``) and
        the extended opcodes outside the characterised twelve (RCP,
        shifts, logic, conversions) — exactly what the paper's grey bar
        represents.
        """
        total = self.total
        if total == 0:
            return {name: 0.0 for name in GROUPS} | {"Others": 0.0}
        fractions = {
            name: sum(self.counts.get(op, 0) for op in opcodes) / total
            for name, opcodes in GROUPS.items()
        }
        fractions["Others"] = 1.0 - sum(fractions.values())
        return fractions

    @property
    def characterized_coverage(self) -> float:
        """Fraction of dynamic instructions the 12 opcodes cover (>0.7)."""
        if self.total == 0:
            return 0.0
        characterized = sum(self.counts.get(op, 0)
                            for op in CHARACTERIZED_OPCODES)
        return characterized / self.total


def profile_application(app) -> InstructionProfile:
    """Run *app* once in profile mode and return its instruction mix."""
    ops = SassOps(precision=getattr(app, "precision", "fp32"))
    ops.run(app)
    return InstructionProfile(
        app_name=app.name,
        counts=ops.profile(),
        other_count=ops.other_count,
    )
