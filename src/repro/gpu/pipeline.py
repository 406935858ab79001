"""Pipeline registers between decode and execute/writeback.

FlexGripPlus carries decoded instructions and per-thread operands through
pipeline register banks sized for a whole 32-thread warp, even though only
one 8-lane group is in the execute stage at a time.  The paper measured
that ~84% of those flip-flops hold per-thread *data* (operands, results)
and ~16% hold *control* (opcode, destination index, write enables, warp
masks, immediates) — and that the small control fraction is responsible
for most DUEs and for the multi-thread SDCs pipeline faults produce.

This module reproduces that structure:

* per-thread operand/result registers are declared for all 32 warp slots
  (``lane`` = warp bit).  Each slot is live only while its group passes
  the execute stage, so a transient on a slot usually decays unconsumed —
  the utilization dilution a real multi-stage pipeline exhibits;
* the decoded-instruction word (control) is declared once, *consumed* by
  the SM, plus two shadow copies representing the fetch/issue-stage
  instruction words whose contents have already been sampled downstream
  (flips there decay unconsumed);
* the warp active mask is latched into the control bank and consumed for
  thread gating, so control corruption really does disable/enable whole
  thread groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import IllegalInstructionError
from .fault_plane import FaultPlane, FlipFlop, ModuleName
from .isa import (
    CompareOp,
    Instruction,
    Opcode,
    OPCODE_DECODING,
    OPCODE_ENCODING,
    OperandKind,
)

__all__ = ["PipelineRegisters", "DecodedControl", "COMPARE_ENCODING"]

COMPARE_ENCODING = {op: i for i, op in enumerate(CompareOp)}
COMPARE_DECODING = {i: op for op, i in COMPARE_ENCODING.items()}

_NO_REG = 0xFF  # "no destination / no source" encoding in the control word


@dataclass
class DecodedControl:
    """The decoded-instruction word as read back from the pipeline latches."""

    opcode: Opcode
    dest: int
    write_enable: bool
    dest_is_predicate: bool
    src_sel: "tuple[int, int, int]"
    src_is_imm: "tuple[bool, bool, bool]"
    imm: int
    pred_idx: int
    pred_negated: bool
    compare: Optional[CompareOp]
    branch_target: int
    warp_id: int
    pc: int
    warp_mask: int


class PipelineRegisters:
    """Decode->execute and execute->writeback latch banks."""

    _SLOT_REGISTERS = (
        ("de.src_a", 32, "data"),
        ("de.src_b", 32, "data"),
        ("de.src_c", 32, "data"),
        ("wb.result", 32, "data"),
    )
    _CTRL_REGISTERS = (
        ("de.opcode", 8, "control"),
        ("de.dest", 8, "control"),
        ("de.wen", 1, "control"),
        ("de.dest_is_pred", 1, "control"),
        ("de.src_a_sel", 8, "control"),
        ("de.src_b_sel", 8, "control"),
        ("de.src_c_sel", 8, "control"),
        ("de.src_imm_flags", 3, "control"),
        ("de.imm", 32, "control"),
        ("de.pred_idx", 3, "control"),
        ("de.pred_neg", 1, "control"),
        ("de.cmp_sel", 3, "control"),
        ("de.branch_target", 12, "control"),
        ("de.warp_id", 4, "control"),
        ("de.pc", 12, "control"),
        ("de.valid", 1, "control"),
        ("de.stage_ctrl", 6, "control"),
        ("de.warp_mask", 32, "control"),
        ("wb.dest", 8, "control"),
        ("wb.wen", 1, "control"),
        ("wb.group_mask", 8, "control"),
        ("wb.warp_mask", 32, "control"),
        ("wb.warp_id", 4, "control"),
        ("wb.pc", 12, "control"),
    )

    #: Upstream instruction-word copies (fetch/issue stages): latched with
    #: live values but already sampled downstream, so flips decay unread.
    N_SHADOW_CTRL_BANKS = 2

    def __init__(self, plane: FaultPlane, n_lanes: int = 8,
                 warp_size: int = 32,
                 module: str = ModuleName.PIPELINE) -> None:
        self.plane = plane
        self.n_lanes = n_lanes
        self.warp_size = warp_size
        self.module = module
        for slot in range(warp_size):
            for name, width, kind in self._SLOT_REGISTERS:
                plane.declare(FlipFlop(module, name, width, slot, kind))
        prefixes = [""] + [
            f"s{i}." for i in range(1, self.N_SHADOW_CTRL_BANKS + 1)]
        for prefix in prefixes:
            for name, width, kind in self._CTRL_REGISTERS:
                if name == "wb.group_mask":
                    width = n_lanes  # one enable bit per SIMT lane
                plane.declare(
                    FlipFlop(module, prefix + name, width, -1, kind))
        self._shadow_prefixes = prefixes[1:]

    def _latch(self, name: str, value: int, lane: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.plane.passive:
            return value & mask
        return self.plane.latch(
            self.module, name, value & mask, lane) & mask

    def _latch_ctrl(self, name: str, value: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.plane.passive:
            return value & mask
        latched = self.plane.latch(self.module, name, value & mask, -1) & mask
        if self.plane.pending_for(self.module):
            for prefix in self._shadow_prefixes:
                self.plane.latch(self.module, prefix + name, value, -1)
        return latched

    # -- decode stage -----------------------------------------------------------
    def latch_decode(self, inst: Instruction, warp_id: int, pc: int,
                     branch_target: int, warp_mask: int) -> DecodedControl:
        """Latch the decoded-instruction word; returns what execute will see.

        Raises :class:`IllegalInstructionError` when the (possibly fault-
        corrupted) opcode register decodes to no known opcode — a DUE.
        """
        opcode_code = self._latch_ctrl(
            "de.opcode", OPCODE_ENCODING[inst.opcode], 8)
        opcode = OPCODE_DECODING.get(opcode_code)
        if opcode is None:
            raise IllegalInstructionError(
                f"pipeline opcode register decoded to invalid code "
                f"{opcode_code:#x}")

        dest_idx = _NO_REG
        dest_is_pred = False
        if inst.dest is not None:
            dest_idx = inst.dest.value
            dest_is_pred = inst.dest.kind is OperandKind.PREDICATE
        wen = 0 if inst.dest is None else 1

        src_sel: List[int] = [_NO_REG, _NO_REG, _NO_REG]
        src_imm_flags = 0
        imm_value = 0
        for i, src in enumerate(inst.srcs):
            if src.kind is OperandKind.IMMEDIATE:
                src_imm_flags |= 1 << i
                imm_value = src.value
            else:
                src_sel[i] = src.value
        if inst.uses_address_offset and not src_imm_flags:
            # the [Rx + imm] addressing offset rides the immediate latch
            # (absolute immediate addresses keep their own value instead)
            imm_value = inst.offset

        dest_idx = self._latch_ctrl("de.dest", dest_idx, 8)
        wen = self._latch_ctrl("de.wen", wen, 1)
        dest_is_pred = bool(self._latch_ctrl(
            "de.dest_is_pred", int(dest_is_pred), 1))
        src_sel[0] = self._latch_ctrl("de.src_a_sel", src_sel[0], 8)
        src_sel[1] = self._latch_ctrl("de.src_b_sel", src_sel[1], 8)
        src_sel[2] = self._latch_ctrl("de.src_c_sel", src_sel[2], 8)
        src_imm_flags = self._latch_ctrl("de.src_imm_flags", src_imm_flags, 3)
        imm_value = self._latch_ctrl("de.imm", imm_value, 32)
        pred_idx = self._latch_ctrl(
            "de.pred_idx",
            inst.predicate.value if inst.predicate is not None else 0, 3)
        pred_neg = bool(self._latch_ctrl(
            "de.pred_neg", int(inst.predicate_negated), 1))
        cmp_sel = self._latch_ctrl(
            "de.cmp_sel",
            COMPARE_ENCODING.get(inst.compare, 0) if inst.compare else 0, 3)
        branch_target = self._latch_ctrl(
            "de.branch_target", branch_target, 12)
        warp_id = self._latch_ctrl("de.warp_id", warp_id, 4)
        pc = self._latch_ctrl("de.pc", pc, 12)
        warp_mask = self._latch_ctrl("de.warp_mask", warp_mask, 32)
        valid = self._latch_ctrl("de.valid", 1, 1)
        # de.stage_ctrl models the stage-enable shift chain; its contents
        # are consumed by clock gating below this abstraction level, so the
        # read-back is intentionally unused (flips there decay harmlessly).
        self._latch_ctrl("de.stage_ctrl", 0b100001, 6)
        if not valid:
            # a cleared valid bit squashes the decoded word into a bubble:
            # execute sees a NOP with writes disabled
            opcode = Opcode.NOP
            wen = 0

        compare = COMPARE_DECODING.get(cmp_sel) if inst.compare else None
        return DecodedControl(
            opcode=opcode,
            dest=dest_idx,
            write_enable=bool(wen),
            dest_is_predicate=dest_is_pred,
            src_sel=(src_sel[0], src_sel[1], src_sel[2]),
            src_is_imm=(
                bool(src_imm_flags & 1),
                bool(src_imm_flags & 2),
                bool(src_imm_flags & 4),
            ),
            imm=imm_value,
            pred_idx=pred_idx,
            pred_negated=pred_neg,
            compare=compare,
            branch_target=branch_target,
            warp_id=warp_id,
            pc=pc,
            warp_mask=warp_mask,
        )

    def latch_operands(self, slot: int, a: int, b: int, c: int
                       ) -> "tuple[int, int, int]":
        """Latch one warp slot's operand registers."""
        a = self._latch("de.src_a", a, slot, 32)
        b = self._latch("de.src_b", b, slot, 32)
        c = self._latch("de.src_c", c, slot, 32)
        return a, b, c

    def latch_beat_selectors(self, ctrl: DecodedControl
                             ) -> "tuple[int, int, int]":
        """Re-latch the operand selectors for one lane-group beat.

        The decoded selector fields travel with each 8-thread beat through
        the operand-fetch stage, so they are re-latched per group from the
        decoded values: a transient landing here redirects the register
        reads of exactly one beat — the mechanism behind the row-shaped
        corruption patterns pipeline faults produce on t-MxM (Fig. 8).
        """
        a = self._latch_ctrl("de.src_a_sel", ctrl.src_sel[0], 8)
        b = self._latch_ctrl("de.src_b_sel", ctrl.src_sel[1], 8)
        c = self._latch_ctrl("de.src_c_sel", ctrl.src_sel[2], 8)
        return a, b, c

    # -- writeback stage ----------------------------------------------------------
    def latch_writeback(self, slots: Sequence[int], results: Sequence[int],
                        dest: int, wen: bool, group_mask: int,
                        warp_mask: int, warp_id: int, pc: int
                        ) -> "tuple[List[int], int, bool, int, int]":
        """Latch per-slot results plus the writeback control word.

        Returns ``(results, dest, wen, group_mask, warp_mask)`` as read
        back from the latches; the SM gates register-file writes on both
        masks, so corrupting either disables or redirects thread writes.
        """
        latched = [
            self._latch("wb.result", value, slot, 32)
            for slot, value in zip(slots, results)
        ]
        dest = self._latch_ctrl("wb.dest", dest, 8)
        wen = bool(self._latch_ctrl("wb.wen", int(wen), 1))
        group_mask = self._latch_ctrl("wb.group_mask", group_mask,
                                      self.n_lanes)
        warp_mask = self._latch_ctrl("wb.warp_mask", warp_mask, 32)
        self._latch_ctrl("wb.warp_id", warp_id, 4)
        self._latch_ctrl("wb.pc", pc, 12)
        return latched, dest, wen, group_mask, warp_mask

    # -- bubbles -----------------------------------------------------------------
    def latch_bubble(self) -> None:
        """Latch idle (bubble) values into every bank.

        Called during fetch/decode overhead and memory-latency stall
        cycles: the pipeline keeps clocking, but whatever a transient
        flips in a bubble slot is discarded.  Every flip-flop of the
        module latches 0, so the plane handles the bubble as one event
        (:meth:`FaultPlane.latch_bubble`); golden runs pay nothing.
        """
        if not self.plane.passive:
            self.plane.latch_bubble(self.module)
