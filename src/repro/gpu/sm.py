"""Streaming multiprocessor: the top level of the RTL GPU model.

Ties the warp scheduler, pipeline registers, functional units (FP32, INT,
SFU + controller) and the ECC-protected memories into an executable model
of one FlexGripPlus streaming multiprocessor.  Like the original, the SIMT
width is configurable (8, 16 or 32 lanes); a 32-thread warp is executed as
``warp_size / n_lanes`` back-to-back lane groups, which is why a corrupted
shared control register can damage anywhere from one group to the whole
warp (the paper's "two of the four groups of 8 threads" observation).

The SM raises :class:`~repro.errors.GpuHardwareError` subclasses for every
condition a real GPU would surface as a detected unrecoverable error:
watchdog expiry, illegal PCs and opcodes, out-of-range register indices and
out-of-bounds memory accesses.  The RTL campaign classifies those as DUEs.

A fault-free run can be paused at any dispatch-loop boundary
(:meth:`StreamingMultiprocessor.walk`) and captured as an
:class:`SMCheckpoint`; ``launch(..., start=checkpoint)`` resumes from it.
The datapath, pipeline and SFU modules hold no state between loop
iterations, so the checkpoint is the plane cycle, the scheduler, the
register file and both memories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import (
    FaultDecayedError,
    GpuHangError,
    InvalidProgramCounterError,
    RegisterFaultError,
)
from .bits import MASK32, bits_to_float, bits_to_int, float_to_bits
from .fault_plane import FaultModel, FaultPlane
from .isa import CompareOp, Instruction, Opcode, OperandKind
from .memory import GlobalMemory, RegisterFile
from .pipeline import DecodedControl, PipelineRegisters
from .program import Program
from .scheduler import WarpContext, WarpScheduler, WarpState
from .fp32 import BF16Unit, FP16Unit, FP32Unit
from .intu import IntUnit
from .sfu import SfuController
from .trace import GoldenTraceRecorder

__all__ = ["SMConfig", "KernelResult", "SMCheckpoint",
           "StreamingMultiprocessor", "TraceEntry"]


@dataclass(frozen=True)
class SMConfig:
    """Static configuration of the streaming multiprocessor."""

    n_lanes: int = 8          # SIMT lanes (FlexGripPlus: 8, 16 or 32)
    warp_size: int = 32
    max_warps: int = 8
    n_registers: int = 64
    memory_words: int = 1 << 16
    shared_memory_words: int = 2048
    n_sfus: int = 2
    #: ECC on the register file (the paper's default).  Disable to expose
    #: the register file as an injectable module and validate that memory
    #: faults manifest as plain bit flips.
    ecc_enabled: bool = True
    #: fetch/decode overhead cycles per instruction: the pipeline clocks
    #: bubbles through while the next instruction is prepared
    fetch_ticks: int = 2
    #: extra stall cycles a global-memory access keeps the pipeline idle
    memory_stall_ticks: int = 8

    def __post_init__(self) -> None:
        if self.warp_size % self.n_lanes:
            raise ValueError("warp_size must be a multiple of n_lanes")


@dataclass(frozen=True)
class TraceEntry:
    """One dispatched instruction in an execution trace."""

    cycle: int
    warp_id: int
    pc: int
    opcode: str


@dataclass
class KernelResult:
    """Outcome of one kernel execution on the SM."""

    memory: GlobalMemory
    cycles: int
    n_threads: int
    registers: RegisterFile
    trace: Optional[List[TraceEntry]] = None


#: Default watchdog budget of a launch, in cycles.
_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class SMCheckpoint:
    """A fault-free run's state at the top of one dispatch-loop iteration.

    ``scheduler`` and ``registers`` are :meth:`WarpScheduler.snapshot`
    and :meth:`RegisterFile.snapshot` values; ``memory`` and ``shared``
    are the global and shared memory words.
    """

    cycle: int
    scheduler: tuple
    registers: tuple
    memory: List[int]
    shared: List[int]


class StreamingMultiprocessor:
    """Executable RTL-style model of one GPU streaming multiprocessor."""

    def __init__(self, config: Optional[SMConfig] = None,
                 plane: Optional[FaultPlane] = None) -> None:
        self.config = config or SMConfig()
        self.plane = plane or FaultPlane()
        cfg = self.config
        self.scheduler = WarpScheduler(self.plane, cfg.max_warps,
                                       cfg.warp_size)
        self.pipeline = PipelineRegisters(self.plane, cfg.n_lanes,
                                          cfg.warp_size)
        self.fp32 = FP32Unit(self.plane, cfg.n_lanes)
        self.fp16 = FP16Unit(self.plane, cfg.n_lanes)
        self.bf16 = BF16Unit(self.plane, cfg.n_lanes)
        #: the datapath FADD/FMUL/FFMA route through; selected per launch
        #: from ``Program.float_precision`` (fp32 unless the kernel says
        #: otherwise, so single-precision runs are unchanged)
        self.float_units = {"fp32": self.fp32, "fp16": self.fp16,
                            "bf16": self.bf16}
        self.float_unit = self.fp32
        self.intu = IntUnit(self.plane, cfg.n_lanes)
        self.sfu = SfuController(self.plane, cfg.n_sfus)
        self._program: Optional[Program] = None
        self._registers: Optional[RegisterFile] = None
        self._memory: Optional[GlobalMemory] = None
        self._n_threads = 0
        self._trace: Optional[List[TraceEntry]] = None
        self._recorder: Optional[GoldenTraceRecorder] = None

    # -- kernel launch ------------------------------------------------------------
    def launch(
        self,
        program: Program,
        n_threads: int,
        memory_image: Optional[Dict[int, Sequence[int]]] = None,
        initial_registers: Optional[Dict[int, Sequence[int]]] = None,
        fault: Optional[FaultModel] = None,
        max_cycles: int = _MAX_CYCLES,
        trace: bool = False,
        recorder: Optional[GoldenTraceRecorder] = None,
        start: Optional[SMCheckpoint] = None,
    ) -> KernelResult:
        """Run *program* over *n_threads* threads and return the result.

        ``memory_image`` maps base word addresses to word sequences written
        before launch.  ``initial_registers`` maps register indices to
        per-thread value sequences; ``R0`` always receives the global thread
        id first (the launch ABI), then explicit entries are applied.
        ``fault`` optionally arms one transient on the fault plane for the
        duration of this run.  GPU-detectable errors propagate as
        :class:`~repro.errors.GpuHardwareError` (the campaign's DUE).

        ``recorder`` attaches a :class:`GoldenTraceRecorder` for the
        duration of the (necessarily fault-free) run, capturing the latch
        and dispatch schedule the vectorized fault engine replays.

        ``start`` resumes the same fault-free launch from an
        :class:`SMCheckpoint` taken during a :meth:`walk` instead of from
        cycle 0 (the memory image and initial registers are already in
        it).  With ``fault`` armed, the run is bit-identical to the full
        one as long as every latch before the checkpoint happened before
        the fault's activation cycle: until then no model changes a value.
        """
        self._load(program, n_threads, memory_image, initial_registers,
                   start)
        self._trace: Optional[List[TraceEntry]] = [] if trace else None
        if recorder is not None:
            if fault is not None:
                raise ValueError(
                    "golden-trace recording requires a fault-free run")
            self._recorder = recorder
            self.plane.attach_recorder(recorder)
        if fault is not None:
            self.plane.arm(fault)
        try:
            cycles = self._run(max_cycles, start)
            if recorder is not None:
                recorder.finish(cycles)
        finally:
            if recorder is not None:
                self._recorder = None
                self.plane.detach_recorder()
            else:
                self.plane.disarm()
        return KernelResult(self._memory, cycles, n_threads,
                            self._registers, self._trace)

    def walk(
        self,
        program: Program,
        n_threads: int,
        memory_image: Optional[Dict[int, Sequence[int]]] = None,
        initial_registers: Optional[Dict[int, Sequence[int]]] = None,
    ) -> Iterator[int]:
        """Run *program* on the passive plane, pausing at every boundary.

        Yields the plane cycle at the top of each dispatch-loop
        iteration, before the scheduler selects a warp.  While the walk
        is paused, :meth:`checkpoint` captures the state there.
        """
        self._load(program, n_threads, memory_image, initial_registers,
                   None)
        self._trace = None
        yield from self._loop(_MAX_CYCLES, None)

    def checkpoint(self) -> SMCheckpoint:
        """The state of a :meth:`walk` paused at a loop boundary."""
        return SMCheckpoint(self.plane.cycle, self.scheduler.snapshot(),
                            self._registers.snapshot(),
                            self._memory.snapshot(),
                            self._shared.snapshot())

    def _load(self, program: Program, n_threads: int,
              memory_image: Optional[Dict[int, Sequence[int]]],
              initial_registers: Optional[Dict[int, Sequence[int]]],
              start: Optional[SMCheckpoint]) -> None:
        """Set up the register file, memories and clock for a run."""
        cfg = self.config
        if n_threads <= 0 or n_threads > cfg.max_warps * cfg.warp_size:
            raise ValueError(
                f"n_threads must be in [1, {cfg.max_warps * cfg.warp_size}]")
        self._program = program
        self.select_float_unit(program.float_precision)
        self._n_threads = n_threads
        self._registers = RegisterFile(
            n_threads, cfg.n_registers,
            plane=self.plane, ecc=cfg.ecc_enabled)
        self._memory = GlobalMemory(cfg.memory_words)
        self._shared = GlobalMemory(cfg.shared_memory_words)
        if start is not None:
            self._registers.restore(start.registers)
            self._memory.restore(start.memory)
            self._shared.restore(start.shared)
            self.plane.cycle = start.cycle
            return
        if memory_image:
            for base, words in memory_image.items():
                self._memory.write_words(base, words)
        for tid in range(n_threads):
            self._registers.write(tid, 0, tid)
        if initial_registers:
            for reg, values in initial_registers.items():
                for tid in range(min(n_threads, len(values))):
                    self._registers.write(tid, reg, values[tid])
        self.plane.reset_time()

    def select_float_unit(self, precision: str) -> None:
        """Route FADD/FMUL/FFMA through the datapath for *precision*.

        ``launch`` calls this from ``Program.float_precision``; the
        vectorized replay engine calls it directly because its scratch SM
        computes lanes without going through a kernel launch.
        """
        try:
            self.float_unit = self.float_units[precision]
        except KeyError:
            raise ValueError(
                f"unknown float precision {precision!r}; expected one of "
                f"{sorted(self.float_units)}") from None

    # -- main loop -------------------------------------------------------------------
    def _run(self, max_cycles: int, start: Optional[SMCheckpoint]) -> int:
        recorder = self._recorder
        for cycle in self._loop(max_cycles, start):
            if recorder is not None:
                recorder.begin_iteration(cycle)
        return self.plane.cycle

    def _loop(self, max_cycles: int,
              start: Optional[SMCheckpoint]) -> Iterator[int]:
        """The dispatch loop; yields the plane cycle at each boundary."""
        cfg = self.config
        program = self._program
        scheduler = self.scheduler
        if start is not None:
            scheduler.restore(start.scheduler)
        else:
            n_warps = (self._n_threads + cfg.warp_size - 1) // cfg.warp_size
            scheduler.reset(start_pc=0)
            # retire unused warps, trim the tail warp's mask to real threads
            for ctx in scheduler.contexts:
                base = ctx.warp_id * cfg.warp_size
                if ctx.warp_id >= n_warps:
                    ctx.state = WarpState.EXITED
                    continue
                live = min(self._n_threads - base, cfg.warp_size)
                if live < cfg.warp_size:
                    scheduler.set_mask(ctx, (1 << live) - 1)

        while not scheduler.all_exited():
            yield self.plane.cycle
            ctx = scheduler.select()
            if ctx is None:
                if scheduler.barrier_complete() and any(
                        c.state == WarpState.BARRIER
                        for c in scheduler.contexts):
                    # every live warp reached the barrier: release them
                    scheduler.release_barrier()
                    self.plane.tick()
                    if self.plane.cycle > max_cycles:
                        raise GpuHangError(
                            f"watchdog expired after {self.plane.cycle} "
                            "cycles")
                    continue
                raise GpuHangError(
                    "no warp is ready but the kernel has not finished")
            if not 0 <= ctx.pc < len(program):
                raise InvalidProgramCounterError(
                    f"warp {ctx.warp_id} fetched from PC {ctx.pc} "
                    f"(program has {len(program)} instructions)")
            if self._trace is not None:
                self._trace.append(TraceEntry(
                    self.plane.cycle, ctx.warp_id, ctx.pc,
                    program[ctx.pc].opcode.value))
            if self._recorder is not None:
                inst = program[ctx.pc]
                self._recorder.begin_step(
                    ctx.warp_id, ctx.pc, inst.opcode.value,
                    inst.predicate is not None)
            self._execute(ctx, program[ctx.pc])
            self.plane.tick()
            if self.plane.fault_decayed:
                raise FaultDecayedError(
                    "transient decayed unconsumed; run is golden-identical")
            if self.plane.cycle > max_cycles:
                raise GpuHangError(
                    f"watchdog expired after {self.plane.cycle} cycles")

    # -- instruction execution ----------------------------------------------------------
    def _execute(self, ctx: WarpContext, inst: Instruction) -> None:
        program = self._program
        self._stall(self.config.fetch_ticks)
        branch_target = (
            program.resolve(inst.target) if inst.opcode is Opcode.BRA else 0)
        ctrl = self.pipeline.latch_decode(
            inst, ctx.warp_id, ctx.pc, branch_target, ctx.active_mask)
        if self._recorder is not None:
            self._recorder.record_ctrl(ctrl)
        opcode = ctrl.opcode

        if opcode is Opcode.EXIT:
            self.scheduler.retire(ctx)
            return
        if opcode is Opcode.NOP:
            self.scheduler.advance(ctx, ctx.pc + 1)
            return
        if opcode is Opcode.BAR:
            # advance past the barrier first: the warp resumes after it
            self.scheduler.advance(ctx, ctx.pc + 1)
            self.scheduler.park_at_barrier(ctx)
            return
        if opcode is Opcode.BRA:
            self._execute_branch(ctx, inst, ctrl)
            return

        self._execute_data(ctx, inst, ctrl)
        if opcode in (Opcode.GLD, Opcode.GST):
            self._stall(self.config.memory_stall_ticks)
        self.scheduler.advance(ctx, ctx.pc + 1)

    # -- branches -----------------------------------------------------------------------
    def _execute_branch(self, ctx: WarpContext, inst: Instruction,
                        ctrl: DecodedControl) -> None:
        threads = self._warp_threads(ctx)
        if inst.predicate is None:
            self.scheduler.advance(ctx, ctrl.branch_target)
            return
        taken: List[int] = []
        not_taken: List[int] = []
        votes: List["tuple[int, bool]"] = []
        for tid, bit in threads:
            if not ctx.active_mask >> bit & 1:
                continue
            value = self._registers.read_predicate(tid, ctrl.pred_idx)
            if ctrl.pred_negated:
                value = not value
            votes.append((tid, bool(value)))
            (taken if value else not_taken).append(bit)
        if self._recorder is not None:
            self._recorder.record_branch(
                ctrl.pred_idx, ctrl.pred_negated, votes)
        if not taken and not not_taken:
            # no live thread voted (mask corrupted to zero): fall through
            self.scheduler.advance(ctx, ctx.pc + 1)
            return
        if not not_taken:
            # the branch/reconvergence unit rewrites the mask even when the
            # vote is uniform, so it is live state during control flow
            self.scheduler.set_mask(ctx, ctx.active_mask)
            self.scheduler.advance(ctx, ctrl.branch_target)
            return
        if not taken:
            self.scheduler.set_mask(ctx, ctx.active_mask)
            self.scheduler.advance(ctx, ctx.pc + 1)
            return
        # divergent vote: only reachable under fault corruption.  The model
        # takes the majority path and drops the minority threads, a
        # documented simplification that still yields the multi-thread
        # corruption the paper attributes to control-flow faults.
        if len(taken) >= len(not_taken):
            dropped, target = not_taken, ctrl.branch_target
        else:
            dropped, target = taken, ctx.pc + 1
        mask = ctx.active_mask
        for bit in dropped:
            mask &= ~(1 << bit)
        self.scheduler.set_mask(ctx, mask)
        self.scheduler.advance(ctx, target)

    # -- data instructions ----------------------------------------------------------------
    def _execute_data(self, ctx: WarpContext, inst: Instruction,
                      ctrl: DecodedControl) -> None:
        cfg = self.config
        opcode = ctrl.opcode
        recorder = self._recorder
        for group_start in range(0, cfg.warp_size, cfg.n_lanes):
            if recorder is not None:
                recorder.begin_beat(group_start // cfg.n_lanes)
            lanes: List[Optional[int]] = []  # thread id per lane (or None)
            group_mask = 0
            for lane in range(cfg.n_lanes):
                bit = group_start + lane
                tid = ctx.thread_base + bit
                # thread gating consumes the pipeline's latched warp mask,
                # so a corrupted control bit disables or enables threads
                active = (
                    tid < self._n_threads
                    and ctrl.warp_mask >> bit & 1
                    and self._predicate_allows(tid, inst, ctrl)
                )
                lanes.append(tid if tid < self._n_threads else None)
                if active:
                    group_mask |= 1 << lane
            if group_mask == 0:
                self.plane.tick()
                continue
            operands = self._read_operands(
                lanes, group_mask, ctrl, group_start)
            results = self._compute_group(
                opcode, ctrl, lanes, group_mask, operands)
            if recorder is not None:
                recorder.record_beat(group_start // cfg.n_lanes,
                                     group_start, lanes, group_mask,
                                     operands, results)
            self._writeback_group(
                ctx, ctrl, lanes, group_mask, results, group_start)
            self.plane.tick()
        if recorder is not None:
            recorder.end_beat()

    def _predicate_allows(self, tid: int, inst: Instruction,
                          ctrl: DecodedControl) -> bool:
        if inst.predicate is None:
            return True
        value = self._registers.read_predicate(tid, ctrl.pred_idx)
        return not value if ctrl.pred_negated else value

    def _read_operands(self, lanes: Sequence[Optional[int]], group_mask: int,
                       ctrl: DecodedControl, group_start: int
                       ) -> List["tuple[int, int, int]"]:
        """Fetch and latch each active lane's (a, b, c) operand registers."""
        regs = self._registers
        selectors = self.pipeline.latch_beat_selectors(ctrl)
        operands: List["tuple[int, int, int]"] = []
        for lane, tid in enumerate(lanes):
            if tid is None or not group_mask >> lane & 1:
                operands.append((0, 0, 0))
                continue
            values = []
            for src in range(3):
                if ctrl.src_is_imm[src]:
                    values.append(ctrl.imm)
                elif selectors[src] != 0xFF:
                    sel = selectors[src]
                    if sel >= regs.n_registers:
                        raise RegisterFaultError(
                            f"operand selector R{sel} out of range")
                    values.append(regs.read(tid, sel))
                else:
                    values.append(0)
            operands.append(
                self.pipeline.latch_operands(group_start + lane, *values))
        return operands

    def _compute_group(
        self,
        opcode: Opcode,
        ctrl: DecodedControl,
        lanes: Sequence[Optional[int]],
        group_mask: int,
        operands: Sequence["tuple[int, int, int]"],
    ) -> List[int]:
        """Execute one lane group; returns per-lane result bit patterns."""
        if opcode in (Opcode.FSIN, Opcode.FEXP, Opcode.RCP):
            return self._compute_sfu_group(opcode, ctrl, lanes, group_mask,
                                           operands)
        results: List[int] = []
        for lane, tid in enumerate(lanes):
            if tid is None or not group_mask >> lane & 1:
                results.append(0)
                continue
            a, b, c = operands[lane]
            results.append(self._compute_lane(opcode, ctrl, lane, a, b, c))
        return results

    def _compute_lane(self, opcode: Opcode, ctrl: DecodedControl, lane: int,
                      a: int, b: int, c: int) -> int:
        if opcode is Opcode.FADD:
            return self.float_unit.fadd(a, b, lane)
        if opcode is Opcode.FMUL:
            return self.float_unit.fmul(a, b, lane)
        if opcode is Opcode.FFMA:
            return self.float_unit.ffma(a, b, c, lane)
        if opcode is Opcode.IADD:
            return self.intu.iadd(a, b, lane)
        if opcode is Opcode.IMUL:
            return self.intu.imul(a, b, lane)
        if opcode is Opcode.IMAD:
            return self.intu.imad(a, b, c, lane)
        if opcode is Opcode.MOV:
            return a & MASK32
        if opcode in (Opcode.GLD, Opcode.GST, Opcode.SLD, Opcode.SST):
            # [Rx + imm] form adds the carried offset; an absolute
            # immediate address is used as-is (it already rode ctrl.imm)
            offset = 0 if ctrl.src_is_imm[0] else ctrl.imm
            address = (a + offset) & MASK32
            if opcode is Opcode.GLD:
                return self._memory.load(address)
            if opcode is Opcode.GST:
                self._memory.store(address, b)
                return 0
            if opcode is Opcode.SLD:
                return self._shared.load(address)
            self._shared.store(address, b)
            return 0
        if opcode is Opcode.ISET:
            return int(_compare(ctrl.compare, bits_to_int(a),
                                bits_to_int(b)))
        if opcode is Opcode.SHL:
            return self.intu.shl(a, b, lane)
        if opcode is Opcode.SHR:
            return self.intu.shr(a, b, lane)
        if opcode in (Opcode.LOP_AND, Opcode.LOP_OR, Opcode.LOP_XOR):
            return self.intu.lop(opcode.value.split(".")[1], a, b, lane)
        if opcode is Opcode.F2I:
            value = bits_to_float(a)
            if value != value or abs(value) >= 2**31:
                return 0x80000000  # CUDA F2I saturation/NaN convention
            return int(value) & MASK32
        if opcode is Opcode.I2F:
            return float_to_bits(float(bits_to_int(a)))
        raise InvalidProgramCounterError(
            f"opcode {opcode} reached the execute stage unexpectedly")

    def _compute_sfu_group(
        self,
        opcode: Opcode,
        ctrl: DecodedControl,
        lanes: Sequence[Optional[int]],
        group_mask: int,
        operands: Sequence["tuple[int, int, int]"],
    ) -> List[int]:
        """Serialise the group through the shared SFUs.

        The controller may misroute results to threads outside this group;
        those stray writebacks are applied directly (they model the wrong
        lane's writeback port firing), while in-group results flow through
        the regular writeback latches.
        """
        requests = [
            (tid, operands[lane][0])
            for lane, tid in enumerate(lanes)
            if tid is not None and group_mask >> lane & 1
        ]
        routed = self.sfu.execute(opcode, requests)
        tid_to_lane = {tid: lane for lane, tid in enumerate(lanes)
                       if tid is not None}
        results = [0] * len(lanes)
        for tid, value in routed.items():
            lane = tid_to_lane.get(tid)
            if lane is not None:
                results[lane] = value
                group_mask |= 1 << lane  # misrouted into this group
            elif tid < self._n_threads and ctrl.write_enable:
                dest = ctrl.dest
                if dest >= self._registers.n_registers:
                    raise RegisterFaultError(
                        f"SFU writeback register R{dest} out of range")
                self._registers.write(tid, dest, value)
        return results

    def _writeback_group(
        self,
        ctx: WarpContext,
        ctrl: DecodedControl,
        lanes: Sequence[Optional[int]],
        group_mask: int,
        results: Sequence[int],
        group_start: int,
    ) -> None:
        slots = [group_start + lane for lane in range(len(lanes))]
        latched, dest, wen, wb_mask, wb_warp_mask = (
            self.pipeline.latch_writeback(
                slots, results, ctrl.dest, ctrl.write_enable, group_mask,
                ctrl.warp_mask, ctrl.warp_id, ctrl.pc))
        if not wen:
            return
        regs = self._registers
        for lane, tid in enumerate(lanes):
            if tid is None or not wb_mask >> lane & 1:
                continue
            if not wb_warp_mask >> (group_start + lane) & 1:
                continue
            if ctrl.dest_is_predicate:
                if dest >= RegisterFile.N_PREDICATES:
                    raise RegisterFaultError(
                        f"predicate destination P{dest} out of range")
                regs.write_predicate(tid, dest, bool(latched[lane]))
            else:
                if dest >= regs.n_registers:
                    raise RegisterFaultError(
                        f"writeback register R{dest} outside the register "
                        "file")
                regs.write(tid, dest, latched[lane])

    # -- helpers --------------------------------------------------------------------------
    def _stall(self, ticks: int) -> None:
        """Clock bubble cycles through the pipeline (fetch/memory stalls)."""
        for _ in range(ticks):
            self.pipeline.latch_bubble()
            self.plane.tick()

    def _warp_threads(self, ctx: WarpContext) -> List["tuple[int, int]"]:
        """(thread id, mask bit) pairs of this warp's existing threads.

        Uses the scheduler's (possibly fault-shifted) warp-to-thread
        mapping register, not the nominal ``warp_id * warp_size``.
        """
        return [
            (ctx.thread_base + bit, bit)
            for bit in range(self.config.warp_size)
            if ctx.thread_base + bit < self._n_threads
        ]


def _compare(compare: Optional[CompareOp], a: int, b: int) -> bool:
    """Signed integer comparison; unknown selectors compare as False."""
    if compare is CompareOp.EQ:
        return a == b
    if compare is CompareOp.NE:
        return a != b
    if compare is CompareOp.LT:
        return a < b
    if compare is CompareOp.LE:
        return a <= b
    if compare is CompareOp.GT:
        return a > b
    if compare is CompareOp.GE:
        return a >= b
    return False
