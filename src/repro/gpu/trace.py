"""Golden-trace capture for the vectorized fault-parallel RTL engine.

One instrumented fault-free run records everything the vectorized
injector (:mod:`repro.rtl.vectorized`) needs to resolve and replay a
whole fault batch without re-simulating the SM once per fault:

* **the latch schedule** — for every declared flip-flop, the cycles at
  which it latched (plus the dispatch step / execute beat the latch
  belonged to).  Because every ``plane.tick`` in the model is
  unconditional, a faulted run's cycle schedule is identical to the
  golden one up to the instant its transient fires; whether and when a
  :class:`~repro.gpu.fault_plane.TransientFault` fires is therefore a
  pure lookup in this schedule — no simulation required;
* **the dispatch schedule** — the ordered instruction stream actually
  executed (warp, pc, decoded control word), which faulty universes
  replay in lockstep;
* **per-beat operands and results** — the golden values every lane
  consumed and produced, so a replaying universe only recomputes the
  (rare) lanes whose inputs its fault corrupted.

The recorder attaches to the :class:`~repro.gpu.fault_plane.FaultPlane`
(:meth:`FaultPlane.attach_recorder`); while attached, the plane routes
every stage-register write through :meth:`GoldenTraceRecorder.on_latch`
and reports ``pending_for() == True`` so conditionally-skipped latches
(pipeline bubbles, shadow banks) land in the schedule as well — making
the recorded latch set a superset of any single faulted run's pre-fire
latch set.  A pipeline bubble latches 0 into every flip-flop of the
bank at once, so it is logged as one :meth:`GoldenTraceRecorder.on_bubble`
event for the whole module rather than one event per register.
The recorder also keeps the cycle of every dispatch-loop boundary, where
the vectorized injector forks its scalar fallbacks from golden
checkpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["BeatRecord", "BranchRecord", "StepRecord",
           "GoldenTraceRecorder"]


@dataclass(frozen=True)
class BeatRecord:
    """Golden execution of one lane-group beat of a data instruction."""

    group_start: int                      # first warp bit of the group
    lanes: Tuple[Optional[int], ...]      # thread id per lane (None = dead)
    group_mask: int                       # golden active-lane bits
    operands: Tuple[Tuple[int, int, int], ...]  # (a, b, c) per lane
    results: Tuple[int, ...]              # result bits per lane


@dataclass(frozen=True)
class BranchRecord:
    """Golden predicate vote of one predicated branch."""

    pred_idx: int
    negated: bool
    #: raw predicate-register values per live (thread, warp-bit) pair —
    #: a universe whose predicate state differs in any position may
    #: diverge from the golden schedule and must fall back to scalar.
    votes: Tuple[Tuple[int, bool], ...]


@dataclass
class StepRecord:
    """One dispatched instruction of the golden run."""

    index: int
    warp_id: int
    pc: int
    opcode: str
    predicated: bool
    pred_idx: int = 0
    pred_negated: bool = False
    ctrl: Optional[object] = None         # DecodedControl of data steps
    branch: Optional[BranchRecord] = None
    beats: Dict[int, BeatRecord] = field(default_factory=dict)


class GoldenTraceRecorder:
    """Collects the latch + dispatch schedule of one golden run."""

    #: ``beat`` value attributed to latches outside an execute beat
    #: (fetch bubbles, decode, scheduler ready-scans, writeback drains).
    NO_BEAT = -1

    def __init__(self) -> None:
        self.steps: List[StepRecord] = []
        #: flip-flop key -> parallel lists of (cycle, step, beat); the
        #: cycle list is non-decreasing, so firing resolution is a bisect.
        self._event_cycles: Dict[Tuple[str, str, int], List[int]] = {}
        self._event_sites: Dict[Tuple[str, str, int],
                                List[Tuple[int, int]]] = {}
        #: module -> the same parallel lists for its bubble cycles, each
        #: a latch of every flip-flop of the module
        self._bubble_cycles: Dict[str, List[int]] = {}
        self._bubble_sites: Dict[str, List[Tuple[int, int]]] = {}
        #: plane cycle at the top of every dispatch-loop iteration
        self.boundaries: List[int] = []
        self._beat = self.NO_BEAT
        self.total_cycles = 0

    # -- SM hooks ----------------------------------------------------------
    def begin_step(self, warp_id: int, pc: int, opcode: str,
                   predicated: bool, pred_idx: int = 0,
                   pred_negated: bool = False) -> None:
        self._beat = self.NO_BEAT
        self.steps.append(StepRecord(
            index=len(self.steps), warp_id=warp_id, pc=pc, opcode=opcode,
            predicated=predicated, pred_idx=pred_idx,
            pred_negated=pred_negated))

    def record_ctrl(self, ctrl) -> None:
        self.steps[-1].ctrl = ctrl

    def begin_beat(self, beat: int) -> None:
        self._beat = beat

    def end_beat(self) -> None:
        self._beat = self.NO_BEAT

    def record_beat(self, beat: int, group_start: int,
                    lanes: Sequence[Optional[int]], group_mask: int,
                    operands: Sequence[Tuple[int, int, int]],
                    results: Sequence[int]) -> None:
        self.steps[-1].beats[beat] = BeatRecord(
            group_start=group_start,
            lanes=tuple(lanes),
            group_mask=group_mask,
            operands=tuple(tuple(o) for o in operands),
            results=tuple(results),
        )

    def record_branch(self, pred_idx: int, negated: bool,
                      votes: Sequence[Tuple[int, bool]]) -> None:
        self.steps[-1].branch = BranchRecord(
            pred_idx=pred_idx, negated=negated, votes=tuple(votes))

    def finish(self, total_cycles: int) -> None:
        self.total_cycles = total_cycles

    def begin_iteration(self, cycle: int) -> None:
        self.boundaries.append(cycle)

    # -- FaultPlane hooks --------------------------------------------------
    def on_latch(self, module: str, name: str, lane: int,
                 cycle: int) -> None:
        self._append(self._event_cycles, self._event_sites,
                     (module, name, lane), cycle)

    def on_bubble(self, module: str, cycle: int) -> None:
        """Every flip-flop of *module* latched a bubble at *cycle*."""
        self._append(self._bubble_cycles, self._bubble_sites, module, cycle)

    def _append(self, cycles_by, sites_by, key, cycle: int) -> None:
        cycles = cycles_by.get(key)
        if cycles is None:
            cycles = cycles_by[key] = []
            sites_by[key] = []
        cycles.append(cycle)
        sites_by[key].append((len(self.steps) - 1, self._beat))

    # -- firing resolution -------------------------------------------------
    def first_latch_at_or_after(
            self, key: Tuple[str, str, int], cycle: int
    ) -> Optional[Tuple[int, int, int]]:
        """First (cycle, step, beat) latch of *key* at/after *cycle*.

        Mirrors :meth:`FaultPlane.latch`'s arming rule: latches strictly
        before the injection cycle cannot consume the transient.  Returns
        None when the register never latches again — the transient decays
        unconsumed (Masked, not fired) exactly as the scalar run's
        latching-window semantics dictate.  A bubble of the key's module
        counts as a latch of the key.
        """
        own = _first_at_or_after(self._event_cycles.get(key),
                                 self._event_sites.get(key), cycle)
        bubble = _first_at_or_after(self._bubble_cycles.get(key[0]),
                                    self._bubble_sites.get(key[0]), cycle)
        if bubble is not None and (own is None or bubble[0] < own[0]):
            return bubble
        return own


def _first_at_or_after(cycles: Optional[List[int]],
                       sites: Optional[List[Tuple[int, int]]],
                       cycle: int) -> Optional[Tuple[int, int, int]]:
    if not cycles:
        return None
    pos = bisect_left(cycles, cycle)
    if pos == len(cycles):
        return None
    step, beat = sites[pos]
    return cycles[pos], step, beat
