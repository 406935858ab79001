"""Vectorized fault-parallel RTL injection.

The scalar :class:`~repro.rtl.injector.RTLInjector` re-simulates the
whole SM once per fault — thousands of Python ``_latch`` calls per run,
almost all of them recomputing values the golden run already produced.
This engine amortises that interpreter overhead across a whole fault
batch:

1. **One instrumented golden run** per workload records the latch and
   dispatch schedule (:class:`~repro.gpu.trace.GoldenTraceRecorder`).
2. **Firing resolution is a table lookup.**  Every ``plane.tick`` in the
   model is unconditional, so a faulted run's cycle schedule equals the
   golden one up to the instant its transient fires.  Whether a fault
   fires — and at which dispatch step / execute beat — follows from the
   recorded schedule alone.  Faults that never meet a latch of their
   register inside the injection window decay unconsumed and classify as
   Masked (not fired) without any simulation; in practice that is the
   majority of a uniformly-sampled fault list.
3. **Fired faults replay in lockstep.**  Each fired fault becomes one
   row ("universe") of a numpy structured state block — registers,
   predicates, global and shared memory — that advances through the
   *golden* instruction stream.  A universe is bit-identical to golden
   until its fault fires, so the corrupted value is reproduced by
   re-executing just that one op on a scratch SM with the transient
   armed (the unit registers latch exactly once per op, pinning the
   firing to a unique invocation).  After the fire, clean lanes reuse
   recorded golden results; *dirty* lanes — operands that differ from
   the recording — are recomputed row by row on the passive scratch
   SM's own scalar units (:func:`vector_compute`), so they match the
   scalar run bit for bit by construction.
4. **Divergence ejects to the scalar path.**  Anything the lockstep
   replay cannot express — a predicate vote that changes control flow, a
   predicate activating a lane the golden run never executed, a fired
   control-module fault, a non-transient model, a ``register_file``
   fault — falls back to :meth:`RTLInjector.inject`, preserving
   bit-identical classifications by construction rather than by
   approximation.  A fallback starts from a golden checkpoint instead
   of cycle 0: one fault-free walk per batch on the scratch SM visits
   the fallbacks in activation-cycle order and forks each from the last
   dispatch-loop boundary at or before its activation cycle.  That is
   exact because no fault model changes a latched value before its
   activation cycle, no decay deadline passes before it either, and the
   register file's SRAM semantics ignore every access before the
   fault's cycle; a fault active from cycle 0 keeps the full launch,
   since the scheduler reset latches before the first boundary.

Out-of-bounds addresses computed from corrupted operands classify as
DUE with exactly the scalar run's ``MemoryFaultError`` message.  This
engine runs every production RTL cell; :meth:`RTLInjector.inject` from
cycle 0, once per fault, is the reference it is compared against.  A
scalar fallback that hangs ends at the SM's cycle watchdog, as the
reference run does; resolved and replayed faults are bounded by the
recorded schedule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..gpu.fault_plane import FaultModel, FaultPlane, TransientFault
from ..gpu.isa import Opcode
from ..gpu.sm import SMCheckpoint, StreamingMultiprocessor
from ..gpu.trace import GoldenTraceRecorder
from .classify import Outcome, RunClassification, classify_run
from .injector import GoldenRun, RTLInjector
from .microbench import Microbenchmark

__all__ = ["PreparedWorkload", "VectorizedRTLInjector", "REPLAY_MODULES"]

#: Modules whose *fired* transients the lockstep replay reproduces: their
#: registers latch exactly once per functional-unit invocation, so a
#: firing event identifies one op whose corrupted result a scratch
#: re-execution recovers.  The reduced-precision float datapaths share
#: the fp32 unit's latch discipline, so they replay too.  Fired faults
#: elsewhere (shared controllers, scheduler, pipeline control) run
#: scalar; *unfired* faults in any plane-latched module still resolve
#: instantly from the trace.
REPLAY_MODULES = frozenset({"fp32", "int", "fp16", "bf16"})

#: Universes replayed per numpy state block (bounds the transient
#: memory footprint: 64 universes x 64Ki words of global memory = 16MB).
_SUBBATCH = 64

_MEM_OPS = frozenset({Opcode.GLD, Opcode.GST, Opcode.SLD, Opcode.SST})
_SFU_OPS = frozenset({Opcode.FSIN, Opcode.FEXP, Opcode.RCP})
_CTRL_OPS = frozenset({Opcode.EXIT, Opcode.NOP, Opcode.BAR})
_NO_REG = 0xFF


def vector_compute(scratch: StreamingMultiprocessor, opcode: Opcode, ctrl,
                   lane: int, a: np.ndarray, b: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
    """Golden-mode results for one lane's dirty operand columns.

    Row ``i`` of ``a``/``b``/``c`` is one universe's operand triple; each
    is re-executed on the passive *scratch* SM with the unit the scalar
    run uses — ``_compute_lane`` for ALU and FFMA ops, the SFU datapath
    for FSIN/FEXP/RCP (controller routing stays golden: controller
    faults never reach replay).
    """
    if opcode in _SFU_OPS:
        sfu = scratch.sfu.units[0]
        values = (sfu.compute(opcode, int(x)) for x in a)
    else:
        values = (scratch._compute_lane(opcode, ctrl, lane, int(x), int(y),
                                        int(z))
                  for x, y, z in zip(a, b, c))
    return np.fromiter(values, dtype=np.uint32, count=len(a))


@dataclass
class PreparedWorkload:
    """Golden trace + initial numpy state of one workload."""

    bench: Microbenchmark
    golden: GoldenRun
    recorder: GoldenTraceRecorder
    init_regs: np.ndarray   # [n_threads, n_registers] uint32
    init_mem: np.ndarray    # [memory_words] uint32
    init_smem: np.ndarray   # [shared_memory_words] uint32


class _Universe:
    """Book-keeping for one fault row of a replay block."""

    __slots__ = ("index", "fault", "fire_cycle", "step", "beat")

    def __init__(self, index: int, fault: TransientFault,
                 site: Tuple[int, int, int]) -> None:
        self.index = index
        self.fault = fault
        self.fire_cycle, self.step, self.beat = site


class VectorizedRTLInjector:
    """Batch fault executor returning scalar-bit-identical classifications."""

    def __init__(self, injector: Optional[RTLInjector] = None) -> None:
        self.injector = injector or RTLInjector()
        # scratch SM for single-op re-execution (fire-site corruption and
        # every dirty-lane recompute) and for the golden walk the scalar
        # fallbacks fork from
        self._scratch = StreamingMultiprocessor(self.injector.sm.config)

    # -- golden capture ----------------------------------------------------
    def prepare(self, bench: Microbenchmark) -> PreparedWorkload:
        """Run *bench* fault-free once, recording the replayable trace."""
        recorder = GoldenTraceRecorder()
        result = self.injector.sm.launch(
            bench.program,
            bench.n_threads,
            memory_image=bench.memory_image,
            initial_registers=bench.initial_registers,
            recorder=recorder,
        )
        golden = GoldenRun(result.cycles,
                           RTLInjector._snapshot(result, bench))
        cfg = self.injector.sm.config
        init_regs = np.zeros((bench.n_threads, cfg.n_registers),
                             dtype=np.uint32)
        init_regs[:, 0] = np.arange(bench.n_threads, dtype=np.uint32)
        if bench.initial_registers:
            for reg, values in bench.initial_registers.items():
                n = min(bench.n_threads, len(values))
                init_regs[:n, reg] = np.array(
                    [v & 0xFFFFFFFF for v in list(values)[:n]],
                    dtype=np.uint32)
        init_mem = np.zeros(cfg.memory_words, dtype=np.uint32)
        if bench.memory_image:
            for base, words in bench.memory_image.items():
                init_mem[base:base + len(words)] = np.array(
                    [w & 0xFFFFFFFF for w in words], dtype=np.uint32)
        init_smem = np.zeros(cfg.shared_memory_words, dtype=np.uint32)
        return PreparedWorkload(bench, golden, recorder,
                                init_regs, init_mem, init_smem)

    # -- batch injection ---------------------------------------------------
    def inject_batch(self, prepared: PreparedWorkload,
                     faults: Sequence[FaultModel],
                     ) -> List[RunClassification]:
        """Classify every fault; results are in fault-list order.

        Each fault takes one of three paths.  A transient that meets no
        latch of its register inside its window resolves from the trace
        as Masked, unfired.  A fired fp32/int (or fp16/bf16) transient
        replays as a numpy universe.  Every other fault runs as a scalar
        :meth:`RTLInjector.inject` forked from a golden checkpoint:
        fired control-module transients, universes the replay ejects,
        ``register_file`` transients (SRAM semantics that bypass
        ``plane.latch``, so the trace cannot resolve them), and every
        non-transient model — the trace resolution and single-flip
        replay both assume one XOR landing on one latch, while stuck-at
        and burst faults corrupt arbitrarily many.
        """
        out: List[Optional[RunClassification]] = [None] * len(faults)
        recorder = prepared.recorder
        replayable: List[_Universe] = []
        scalar: List[int] = []
        for i, fault in enumerate(faults):
            ff = fault.flipflop
            fault.reset()
            if type(fault) is not TransientFault:
                # non-transient models fire on more than one latch; the
                # single-flip replay machinery cannot express them
                scalar.append(i)
                continue
            if ff.module in FaultPlane.PERSISTENT_STATE_MODULES:
                # SRAM fault semantics read the armed fault directly,
                # bypassing plane.latch: the trace cannot resolve them
                scalar.append(i)
                continue
            site = recorder.first_latch_at_or_after(ff.key, fault.cycle)
            if site is None or site[0] > fault.cycle + fault.window:
                # no latch of this register inside the window: the
                # transient decays unconsumed, exactly the scalar run's
                # FaultDecayedError / never-latched-to-the-end paths
                fault.expired = True
                out[i] = RunClassification(Outcome.MASKED,
                                           fault_fired=False)
                continue
            if (ff.module in REPLAY_MODULES
                    and site[2] != GoldenTraceRecorder.NO_BEAT):
                replayable.append(_Universe(i, fault, site))
            else:
                scalar.append(i)
        for start in range(0, len(replayable), _SUBBATCH):
            block = replayable[start:start + _SUBBATCH]
            for index, classification in self._replay_block(prepared,
                                                            block):
                if classification is None:
                    scalar.append(index)
                else:
                    out[index] = classification
        for i, start in self._forks(prepared, faults, scalar):
            out[i] = self.injector.inject(
                prepared.bench, prepared.golden, faults[i], start)
        return out  # type: ignore[return-value]

    def _forks(self, prepared: PreparedWorkload,
               faults: Sequence[FaultModel], indices: List[int],
               ) -> Iterator[Tuple[int, Optional[SMCheckpoint]]]:
        """Pair each scalar fallback with the checkpoint it forks from.

        The faults are visited in activation-cycle order while one golden
        walk on the scratch SM advances to the last loop boundary at or
        before each activation cycle; only that boundary's checkpoint is
        alive.  A fault active from cycle 0 gets ``None`` (a full
        launch).
        """
        boundaries = prepared.recorder.boundaries
        bench = prepared.bench
        walk = None
        at, checkpoint = -1, None
        for i in sorted(indices, key=lambda i: faults[i].cycle):
            cycle = faults[i].cycle
            if cycle == 0:
                yield i, None
                continue
            target = bisect_right(boundaries, cycle) - 1
            if target != at:
                if walk is None:
                    walk = self._scratch.walk(
                        bench.program, bench.n_threads,
                        memory_image=bench.memory_image,
                        initial_registers=bench.initial_registers)
                for _ in range(target - at):
                    next(walk)
                at, checkpoint = target, self._scratch.checkpoint()
            yield i, checkpoint

    # -- lockstep replay ---------------------------------------------------
    def _replay_block(self, prepared: PreparedWorkload,
                      block: List[_Universe],
                      ) -> List[Tuple[int, Optional[RunClassification]]]:
        """Advance one block of fired-fault universes through the trace.

        Returns ``(fault_index, classification)`` pairs; a None
        classification marks a universe that diverged from the golden
        schedule and must re-run scalar.
        """
        cfg = self.injector.sm.config
        bench = prepared.bench
        # the scratch SM computes single ops without a launch, so the
        # float datapath is selected explicitly per workload
        self._scratch.select_float_unit(bench.program.float_precision)
        n_threads = bench.n_threads
        n_universes = len(block)
        regs = np.repeat(prepared.init_regs[None, :, :], n_universes,
                         axis=0)
        preds = np.zeros((n_universes, n_threads, 8), dtype=bool)
        gmem = np.repeat(prepared.init_mem[None, :], n_universes, axis=0)
        smem = np.repeat(prepared.init_smem[None, :], n_universes, axis=0)
        alive = np.ones(n_universes, dtype=bool)
        ejected = np.zeros(n_universes, dtype=bool)
        due: Dict[int, str] = {}
        fires: Dict[Tuple[int, int], List[Tuple[int, _Universe]]] = {}
        for u, universe in enumerate(block):
            fires.setdefault((universe.step, universe.beat),
                             []).append((u, universe))
        rows = np.arange(n_universes)
        n_beats = cfg.warp_size // cfg.n_lanes

        for step in prepared.recorder.steps:
            if not alive.any():
                break
            ctrl = step.ctrl
            opcode = ctrl.opcode
            if opcode in _CTRL_OPS:
                continue
            if opcode is Opcode.BRA:
                branch = step.branch
                if branch is None:  # unconditional: golden schedule holds
                    continue
                for tid, decision in branch.votes:
                    vote = preds[:, tid, branch.pred_idx]
                    if branch.negated:
                        vote = ~vote
                    mismatch = alive & (vote != decision)
                    ejected |= mismatch
                    alive &= ~mismatch
                continue

            for beat in range(n_beats):
                beat_record = step.beats.get(beat)
                if beat_record is None:
                    if step.predicated:
                        self._eject_activated(step, ctrl, beat, cfg,
                                              n_threads, preds, alive,
                                              ejected)
                    continue
                if step.predicated:
                    self._eject_divergent(beat_record, ctrl, preds,
                                          alive, ejected)
                if not alive.any():
                    continue
                beat_fires = fires.get((step.index, beat), ())
                if opcode in _MEM_OPS:
                    mem = gmem if opcode in (Opcode.GLD, Opcode.GST) \
                        else smem
                    self._replay_mem_beat(opcode, ctrl, beat_record, mem,
                                          regs, preds, rows, alive, due)
                else:
                    self._replay_compute_beat(opcode, ctrl, beat_record,
                                              beat_fires, regs, preds,
                                              alive, ejected)

        results: List[Tuple[int, Optional[RunClassification]]] = []
        bases = [base for base, _ in bench.output_regions]
        for u, universe in enumerate(block):
            universe.fault.fired_cycle = universe.fire_cycle
            universe.fault.expired = False
            if u in due:
                results.append((universe.index, RunClassification(
                    Outcome.DUE, due_reason=due[u], fault_fired=True)))
            elif ejected[u]:
                results.append((universe.index, None))
            else:
                regions = tuple(
                    tuple(int(word)
                          for word in gmem[u, base:base + count])
                    for base, count in bench.output_regions)
                results.append((universe.index, classify_run(
                    prepared.golden.regions, regions, bases,
                    fault_fired=True)))
        return results

    # -- beat replay helpers -----------------------------------------------
    @staticmethod
    def _eject_activated(step, ctrl, beat, cfg, n_threads, preds, alive,
                         ejected) -> None:
        """Golden skipped this beat entirely; eject universes whose
        predicates would activate a lane in it."""
        group_start = beat * cfg.n_lanes
        for lane in range(cfg.n_lanes):
            bit = group_start + lane
            tid = step.warp_id * cfg.warp_size + bit
            if tid >= n_threads or not ctrl.warp_mask >> bit & 1:
                continue
            allow = preds[:, tid, ctrl.pred_idx]
            if ctrl.pred_negated:
                allow = ~allow
            activated = alive & allow
            ejected |= activated
            alive &= ~activated

    @staticmethod
    def _eject_divergent(beat_record, ctrl, preds, alive, ejected) -> None:
        """Eject universes whose predicate state would change which lanes
        of a recorded beat execute."""
        for lane, tid in enumerate(beat_record.lanes):
            bit = beat_record.group_start + lane
            if tid is None or not ctrl.warp_mask >> bit & 1:
                continue
            golden_active = bool(beat_record.group_mask >> lane & 1)
            allow = preds[:, tid, ctrl.pred_idx]
            if ctrl.pred_negated:
                allow = ~allow
            mismatch = alive & (allow != golden_active)
            ejected |= mismatch
            alive &= ~mismatch

    @staticmethod
    def _operand_column(regs, tid, src, ctrl) -> Optional[np.ndarray]:
        """Per-universe values of one source operand, or None when the
        operand is a constant (immediate / no register) for every
        universe."""
        if ctrl.src_is_imm[src]:
            return None
        sel = ctrl.src_sel[src]
        if sel == _NO_REG:
            return None
        return regs[:, tid, sel]

    def _replay_compute_beat(self, opcode, ctrl, beat_record, beat_fires,
                             regs, preds, alive, ejected) -> None:
        """ALU, FFMA and SFU beats: golden results, dirty lanes
        recomputed, firing universes re-executed with their transient."""
        writebacks: List[Tuple[int, np.ndarray]] = []
        for lane, tid in enumerate(beat_record.lanes):
            if tid is None or not beat_record.group_mask >> lane & 1:
                continue
            golden = beat_record.operands[lane]
            columns = [self._operand_column(regs, tid, src, ctrl)
                       for src in range(3)]
            dirty = np.zeros(alive.shape, dtype=bool)
            for src, column in enumerate(columns):
                if column is not None:
                    dirty |= column != np.uint32(golden[src])
            dirty &= alive
            result = np.full(alive.shape, beat_record.results[lane],
                             dtype=np.uint32)
            if dirty.any():
                operands = [
                    column[dirty] if column is not None
                    else np.full(int(dirty.sum()), golden[src],
                                 dtype=np.uint32)
                    for src, column in enumerate(columns)
                ]
                result[dirty] = vector_compute(self._scratch, opcode, ctrl,
                                               lane, *operands)
            for u, universe in beat_fires:
                if universe.fault.flipflop.lane != lane or not alive[u]:
                    continue
                fired = self._scratch_fire(opcode, ctrl, universe, golden)
                if fired is None:  # did not reproduce: re-run scalar
                    ejected[u] = True
                    alive[u] = False
                else:
                    result[u] = np.uint32(fired)
            writebacks.append((lane, result))
        self._writeback(ctrl, beat_record, writebacks, regs, preds, alive)

    def _replay_mem_beat(self, opcode, ctrl, beat_record, mem, regs,
                         preds, rows, alive, due) -> None:
        n_words = mem.shape[1]
        offset = 0 if ctrl.src_is_imm[0] else ctrl.imm
        is_store = opcode in (Opcode.GST, Opcode.SST)
        writebacks: List[Tuple[int, np.ndarray]] = []
        for lane, tid in enumerate(beat_record.lanes):
            if tid is None or not beat_record.group_mask >> lane & 1:
                continue
            golden = beat_record.operands[lane]
            address_column = self._operand_column(regs, tid, 0, ctrl)
            if address_column is None:
                address = np.full(alive.shape, golden[0], dtype=np.uint32)
            else:
                address = address_column.copy()
            address += np.uint32(offset & 0xFFFFFFFF)
            out_of_bounds = alive & (address >= n_words)
            if out_of_bounds.any():
                # first offending lane kills the universe, with the
                # scalar path's exact MemoryFaultError message
                for u in np.nonzero(out_of_bounds)[0]:
                    due[int(u)] = (
                        f"MemoryFaultError: access to word address "
                        f"{int(address[u]):#x} outside the {n_words}-word "
                        f"global memory")
                alive &= ~out_of_bounds
            if is_store:
                value_column = self._operand_column(regs, tid, 1, ctrl)
                if value_column is None:
                    value_column = np.full(alive.shape, golden[1],
                                           dtype=np.uint32)
                mem[alive, address[alive]] = value_column[alive]
            else:
                safe = np.minimum(address, np.uint32(n_words - 1))
                writebacks.append((lane, mem[rows, safe]))
        if not is_store:
            self._writeback(ctrl, beat_record, writebacks, regs, preds,
                            alive)

    @staticmethod
    def _writeback(ctrl, beat_record, writebacks, regs, preds,
                   alive) -> None:
        if not ctrl.write_enable:
            return
        dest = ctrl.dest
        for lane, result in writebacks:
            tid = beat_record.lanes[lane]
            if ctrl.dest_is_predicate:
                preds[alive, tid, dest] = result[alive] != 0
            else:
                regs[alive, tid, dest] = result[alive]

    # -- scratch single-op execution ---------------------------------------
    def _scratch_fire(self, opcode, ctrl, universe: _Universe,
                      operands: Tuple[int, int, int]) -> Optional[int]:
        """Re-execute the firing op with the transient armed on the
        scratch plane, reproducing the corrupted result bit-for-bit."""
        fault = universe.fault
        plane = self._scratch.plane
        plane.cycle = universe.fire_cycle
        copy = TransientFault(fault.flipflop, fault.bit, fault.cycle,
                              window=fault.window, n_bits=fault.n_bits)
        plane.arm(copy)
        try:
            a, b, c = operands
            value = self._scratch._compute_lane(opcode, ctrl,
                                                fault.flipflop.lane, a, b, c)
        finally:
            plane.disarm()
        if not copy.fired:
            return None
        return value & 0xFFFFFFFF
