"""SASS instruction-set subset modelled by the RTL substrate.

The paper characterises the 12 SASS opcodes that dominate GPU workloads
(Figure 3): FP32 arithmetic (FADD, FMUL, FFMA), integer arithmetic (IADD,
IMUL, IMAD), transcendental functions (FSIN, FEXP), memory movements (GLD,
GST) and control flow (BRA, ISET).  A handful of support opcodes (MOV, NOP,
EXIT) are needed so micro-benchmarks and the t-MxM mini-app can be written
as complete programs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Opcode",
    "OperandKind",
    "Operand",
    "Instruction",
    "Register",
    "Predicate",
    "Immediate",
    "CHARACTERIZED_OPCODES",
    "FP32_OPCODES",
    "INT_OPCODES",
    "SFU_OPCODES",
    "MEMORY_OPCODES",
    "CONTROL_OPCODES",
]


class Opcode(enum.Enum):
    """Machine opcodes understood by the streaming-multiprocessor model."""

    # FP32 arithmetic (FP32 functional unit)
    FADD = "FADD"
    FMUL = "FMUL"
    FFMA = "FFMA"
    # Integer arithmetic (INT functional unit)
    IADD = "IADD"
    IMUL = "IMUL"
    IMAD = "IMAD"
    # Transcendental (Special Function Unit)
    FSIN = "FSIN"
    FEXP = "FEXP"
    # Memory movement
    GLD = "GLD"
    GST = "GST"
    # Control flow
    BRA = "BRA"
    ISET = "ISET"
    # Support opcodes (not characterised; needed to form programs)
    MOV = "MOV"
    NOP = "NOP"
    EXIT = "EXIT"
    # Extended opcodes (the paper's "framework allows future updates, to
    # add additional instructions"): integer shifts/logic, the SFU
    # reciprocal, and int<->float conversions
    SHL = "SHL"
    SHR = "SHR"
    LOP_AND = "LOP.AND"
    LOP_OR = "LOP.OR"
    LOP_XOR = "LOP.XOR"
    RCP = "RCP"
    F2I = "F2I"
    I2F = "I2F"
    # shared-memory movement and barrier synchronisation (the kernels the
    # paper's t-MxM mini-app stands for use cooperative tile loading)
    SLD = "SLD"
    SST = "SST"
    BAR = "BAR"

    #: members compare by identity, so identity hashing agrees with
    #: equality and keeps opcode-keyed dict lookups (the per-op SWFI
    #: tally) out of the Python-level ``Enum.__hash__``
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


FP32_OPCODES = (Opcode.FADD, Opcode.FMUL, Opcode.FFMA)
INT_OPCODES = (Opcode.IADD, Opcode.IMUL, Opcode.IMAD)
SFU_OPCODES = (Opcode.FSIN, Opcode.FEXP)
MEMORY_OPCODES = (Opcode.GLD, Opcode.GST)
CONTROL_OPCODES = (Opcode.BRA, Opcode.ISET)

#: The 12 opcodes characterised by the RTL campaigns (paper Sec. III).
CHARACTERIZED_OPCODES = (
    FP32_OPCODES + INT_OPCODES + SFU_OPCODES + MEMORY_OPCODES + CONTROL_OPCODES
)

#: Extended opcodes: executable and profiled, but outside the RTL
#: characterisation grid (they count toward Figure 3's "Others").
EXTENDED_INT_OPCODES = (Opcode.SHL, Opcode.SHR, Opcode.LOP_AND,
                        Opcode.LOP_OR, Opcode.LOP_XOR, Opcode.F2I,
                        Opcode.I2F)
EXTENDED_SFU_OPCODES = (Opcode.RCP,)
EXTENDED_OPCODES = EXTENDED_INT_OPCODES + EXTENDED_SFU_OPCODES


class OperandKind(enum.Enum):
    REGISTER = "register"
    PREDICATE = "predicate"
    IMMEDIATE = "immediate"
    LABEL = "label"


@dataclass(frozen=True)
class Operand:
    """A single instruction operand."""

    kind: OperandKind
    value: int = 0
    label: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.kind is OperandKind.REGISTER:
            return f"R{self.value}"
        if self.kind is OperandKind.PREDICATE:
            return f"P{self.value}"
        if self.kind is OperandKind.LABEL:
            return f"@{self.label}"
        return f"#{self.value}"


def Register(index: int) -> Operand:
    """General-purpose 32-bit register operand ``R<index>``."""
    if index < 0:
        raise ValueError("register index must be non-negative")
    return Operand(OperandKind.REGISTER, index)


def Predicate(index: int) -> Operand:
    """1-bit predicate register operand ``P<index>``."""
    if not 0 <= index < 8:
        raise ValueError("predicate index must be in [0, 8)")
    return Operand(OperandKind.PREDICATE, index)


def Immediate(value: int) -> Operand:
    """32-bit immediate operand."""
    return Operand(OperandKind.IMMEDIATE, value & 0xFFFFFFFF)


class CompareOp(enum.Enum):
    """Comparison selector for ISET (integer set-predicate/register)."""

    EQ = "EQ"
    NE = "NE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"


@dataclass(frozen=True)
class Instruction:
    """One SASS machine instruction.

    ``dest`` is the destination register (or predicate, for ISET with a
    predicate destination).  ``srcs`` holds up to three source operands, the
    paper's "two-input" arithmetic plus the third FMA/MAD addend.  ``target``
    names the branch label for BRA.  ``compare`` selects the ISET relation.
    ``predicate`` optionally guards execution (``@P<n>``), used by the
    control-flow micro-benchmark.
    """

    opcode: Opcode
    dest: Optional[Operand] = None
    srcs: Tuple[Operand, ...] = field(default_factory=tuple)
    target: Optional[str] = None
    compare: Optional[CompareOp] = None
    predicate: Optional[Operand] = None
    predicate_negated: bool = False
    #: immediate address offset for GLD/GST (the SASS ``[Rx+0x...]`` form);
    #: the add happens in the load-store path, not the INT functional unit
    offset: int = 0

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @property
    def uses_address_offset(self) -> bool:
        """True for the ``[Rx + imm]`` addressing forms (global + shared)."""
        return self.opcode in (Opcode.GLD, Opcode.GST, Opcode.SLD,
                               Opcode.SST)

    @property
    def is_arithmetic(self) -> bool:
        return self.opcode in FP32_OPCODES + INT_OPCODES + SFU_OPCODES

    @property
    def uses_fp32_unit(self) -> bool:
        return self.opcode in FP32_OPCODES

    @property
    def uses_int_unit(self) -> bool:
        return self.opcode in INT_OPCODES

    @property
    def uses_sfu(self) -> bool:
        return self.opcode in SFU_OPCODES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [self.opcode.value]
        if self.predicate is not None:
            neg = "!" if self.predicate_negated else ""
            parts.insert(0, f"@{neg}{self.predicate!r}")
        if self.dest is not None:
            parts.append(repr(self.dest))
        parts.extend(repr(s) for s in self.srcs)
        if self.target is not None:
            parts.append(f"-> {self.target}")
        if self.compare is not None:
            parts.append(self.compare.value)
        return " ".join(parts)


_SRC_ARITY = {
    Opcode.FADD: 2,
    Opcode.FMUL: 2,
    Opcode.FFMA: 3,
    Opcode.IADD: 2,
    Opcode.IMUL: 2,
    Opcode.IMAD: 3,
    Opcode.FSIN: 1,
    Opcode.FEXP: 1,
    Opcode.GLD: 1,
    Opcode.GST: 2,
    Opcode.ISET: 2,
    Opcode.MOV: 1,
    Opcode.BRA: 0,
    Opcode.NOP: 0,
    Opcode.EXIT: 0,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.LOP_AND: 2,
    Opcode.LOP_OR: 2,
    Opcode.LOP_XOR: 2,
    Opcode.RCP: 1,
    Opcode.F2I: 1,
    Opcode.I2F: 1,
    Opcode.SLD: 1,
    Opcode.SST: 2,
    Opcode.BAR: 0,
}


def _validate(inst: Instruction) -> None:
    expected = _SRC_ARITY[inst.opcode]
    if len(inst.srcs) != expected:
        raise ValueError(
            f"{inst.opcode.value} expects {expected} sources, got {len(inst.srcs)}"
        )
    if inst.opcode is Opcode.BRA and inst.target is None:
        raise ValueError("BRA requires a target label")
    if inst.opcode is Opcode.ISET and inst.compare is None:
        raise ValueError("ISET requires a compare operation")
    needs_dest = inst.opcode not in (
        Opcode.BRA,
        Opcode.NOP,
        Opcode.EXIT,
        Opcode.GST,
        Opcode.SST,
        Opcode.BAR,
    )
    if needs_dest and inst.dest is None:
        raise ValueError(f"{inst.opcode.value} requires a destination")


#: Fixed opcode encoding used by control registers in the pipeline model.
OPCODE_ENCODING = {op: i for i, op in enumerate(Opcode)}
OPCODE_DECODING = {i: op for op, i in OPCODE_ENCODING.items()}

__all__ += ["CompareOp", "OPCODE_ENCODING", "OPCODE_DECODING",
            "EXTENDED_INT_OPCODES", "EXTENDED_SFU_OPCODES",
            "EXTENDED_OPCODES"]
