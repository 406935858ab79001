"""Warp scheduler with explicit warp-state flip-flops.

The scheduler keeps, per warp, a program counter, a 32-bit active-thread
mask and a small state FSM, plus controller registers (round-robin pointer,
dispatch counters, a per-warp memory base used for address generation).
All of it is declared on the fault plane, and — crucially — every warp's
context registers are **re-latched on every dispatch**, matching the RTL
reality that warp state flows through the scheduling logic each cycle.  A
transient armed on a warp-state bit therefore lands on the warp's next
dispatch, the way the paper's ModelSim controller forces a signal at a
chosen simulation time.

Fault consequences reproduce the paper's observations (Sec. V-B):

* active-mask bit flips disable live threads or enable dead ones — the
  dominant source of scheduler *SDCs*, usually corrupting multiple threads;
* PC corruption sends the warp to a wrong instruction (SDC) or outside the
  program (``InvalidProgramCounterError`` -> DUE), or creates livelocks the
  watchdog converts into DUEs;
* state-FSM corruption parks a warp forever (hang -> DUE) or retires it
  early (missing results -> multi-thread SDC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import GpuHardwareError
from .fault_plane import FaultPlane, FlipFlop, ModuleName

__all__ = ["WarpState", "WarpContext", "WarpScheduler"]


class WarpState:
    """Warp FSM encodings (2-bit register)."""

    READY = 0
    EXITED = 1
    #: parked at a barrier until every live warp arrives (BAR.SYNC)
    BARRIER = 2
    #: encoding 3 is illegal; reaching it is a detected error
    ILLEGAL = (3,)


@dataclass
class WarpContext:
    """Architectural view of one warp's scheduler entry."""

    warp_id: int
    pc: int
    active_mask: int
    state: int
    #: first global thread id of the warp — the dispatch logic's warp-to-
    #: thread mapping.  Corrupting it shifts the *whole warp* onto wrong
    #: threads, the mechanism behind warp-wide scheduler SDCs (paper
    #: Sec. V-B: scheduler faults corrupt ~28 threads on average).
    thread_base: int = 0


class WarpScheduler:
    """Round-robin scheduler over a fixed set of warps."""

    _WARP_REGISTERS = (
        ("warp.pc", 12, "control"),
        ("warp.active_mask", 32, "control"),
        ("warp.state", 2, "control"),
        ("warp.thread_base", 8, "control"),
        ("warp.mem_base", 16, "control"),
    )
    _CTRL_REGISTERS = (
        ("ctrl.rr_pointer", 4, "control"),
        ("ctrl.dispatch_count", 16, "control"),
        ("ctrl.ready_count", 6, "control"),
    )

    def __init__(self, plane: FaultPlane, n_warps: int, warp_size: int = 32,
                 module: str = ModuleName.SCHEDULER) -> None:
        if n_warps <= 0:
            raise ValueError("need at least one warp")
        self.plane = plane
        self.module = module
        self.n_warps = n_warps
        self.warp_size = warp_size
        self._contexts: List[WarpContext] = []
        self._rr_pointer = 0
        self._dispatches = 0
        for warp_id in range(n_warps):
            for name, width, kind in self._WARP_REGISTERS:
                plane.declare(FlipFlop(module, name, width, warp_id, kind))
        for name, width, kind in self._CTRL_REGISTERS:
            plane.declare(FlipFlop(module, name, width, -1, kind))

    def _latch(self, name: str, value: int, lane: int, width: int) -> int:
        mask = (1 << width) - 1
        if self.plane.passive:  # hot path
            return value & mask
        return self.plane.latch(self.module, name, value & mask, lane) & mask

    # -- lifecycle -------------------------------------------------------------
    def reset(self, start_pc: int = 0) -> None:
        """Initialise every warp to READY at *start_pc* with a full mask."""
        full_mask = (1 << self.warp_size) - 1
        self._contexts = []
        self._rr_pointer = 0
        self._dispatches = 0
        for warp_id in range(self.n_warps):
            ctx = WarpContext(warp_id, start_pc, full_mask, WarpState.READY,
                              thread_base=warp_id * self.warp_size)
            self._contexts.append(ctx)
            self._relatch(ctx)

    def snapshot(self) -> tuple:
        """Copy of the warp contexts and controller registers."""
        return (tuple((c.warp_id, c.pc, c.active_mask, c.state,
                       c.thread_base) for c in self._contexts),
                self._rr_pointer, self._dispatches)

    def restore(self, snapshot: tuple) -> None:
        """Reload a :meth:`snapshot` without latching anything."""
        contexts, self._rr_pointer, self._dispatches = snapshot
        self._contexts = [WarpContext(*fields) for fields in contexts]

    def _relatch(self, ctx: WarpContext) -> None:
        """Push a warp's context through its scheduler registers."""
        wid = ctx.warp_id
        ctx.pc = self._latch("warp.pc", ctx.pc, wid, 12)
        ctx.active_mask = self._latch("warp.active_mask", ctx.active_mask,
                                      wid, 32)
        ctx.state = self._latch("warp.state", ctx.state, wid, 2)
        ctx.thread_base = self._latch("warp.thread_base", ctx.thread_base,
                                      wid, 8)
        # warp.mem_base models the per-warp address-generation base; the
        # simplified memory path below computes addresses from thread ids
        # directly, so the register is write-only by design (flips there
        # decay unread, diluting scheduler AVF like real spare state).
        self._latch("warp.mem_base", wid << 8, wid, 16)

    # -- scheduling -------------------------------------------------------------
    def select(self) -> Optional[WarpContext]:
        """Pick the next READY warp round-robin; None when all have exited.

        Raises :class:`GpuHardwareError` when a warp's state register holds
        an illegal encoding (a detected, unrecoverable condition).
        """
        pointer = self._latch("ctrl.rr_pointer", self._rr_pointer, -1, 4)
        ready = 0
        chosen: Optional[WarpContext] = None
        for offset in range(self.n_warps):
            ctx = self._contexts[(pointer + offset) % self.n_warps]
            if ctx.state in WarpState.ILLEGAL:
                raise GpuHardwareError(
                    f"warp {ctx.warp_id} state register holds illegal "
                    f"encoding {ctx.state}")
            if ctx.state in (WarpState.READY, WarpState.BARRIER):
                if ctx.state == WarpState.READY:
                    ready += 1
                # the ready scan clocks every live warp's entry through the
                # scheduling logic each cycle, so transients can land on any
                # of them — not just the dispatched warp
                self._relatch(ctx)
                if ctx.state in WarpState.ILLEGAL:
                    raise GpuHardwareError(
                        f"warp {ctx.warp_id} state corrupted to illegal "
                        f"encoding {ctx.state} during the ready scan")
                if chosen is None and ctx.state == WarpState.READY:
                    chosen = ctx
        self._latch("ctrl.ready_count", ready, -1, 6)
        if chosen is None:
            return None
        self._rr_pointer = (chosen.warp_id + 1) % self.n_warps
        self._dispatches = self._latch(
            "ctrl.dispatch_count", self._dispatches + 1, -1, 16)
        return chosen

    # -- context updates (latched, so faults can land on them) -------------------
    def advance(self, ctx: WarpContext, new_pc: int) -> None:
        ctx.pc = self._latch("warp.pc", new_pc, ctx.warp_id, 12)

    def set_mask(self, ctx: WarpContext, mask: int) -> None:
        ctx.active_mask = self._latch("warp.active_mask", mask,
                                      ctx.warp_id, 32)

    def retire(self, ctx: WarpContext) -> None:
        ctx.state = self._latch("warp.state", WarpState.EXITED,
                                ctx.warp_id, 2)

    def park_at_barrier(self, ctx: WarpContext) -> None:
        """BAR.SYNC: the warp waits until every live warp arrives."""
        ctx.state = self._latch("warp.state", WarpState.BARRIER,
                                ctx.warp_id, 2)

    def barrier_complete(self) -> bool:
        """True when no warp is still running toward the barrier."""
        return all(ctx.state != WarpState.READY for ctx in self._contexts)

    def release_barrier(self) -> None:
        """Wake every parked warp once the barrier completed."""
        for ctx in self._contexts:
            if ctx.state == WarpState.BARRIER:
                ctx.state = self._latch("warp.state", WarpState.READY,
                                        ctx.warp_id, 2)

    # -- queries ------------------------------------------------------------------
    @property
    def contexts(self) -> List[WarpContext]:
        return self._contexts

    def all_exited(self) -> bool:
        return all(ctx.state == WarpState.EXITED for ctx in self._contexts)

    def context(self, warp_id: int) -> WarpContext:
        return self._contexts[warp_id]
