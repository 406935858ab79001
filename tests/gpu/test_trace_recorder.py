"""Golden-trace recorder + passive hot-path tests.

Covers the :class:`~repro.gpu.trace.GoldenTraceRecorder` contract the
vectorized fault engine replays against (dispatch schedule, per-beat
operands/results, branch votes, latch-schedule bisection), the
recorder/fault mutual-exclusion guards, and the passive fast path: a
golden run (no fault, no recorder) must never dispatch a single
``plane.latch`` call — including through the SFU controller, whose
unconditional latching used to dominate golden wall-clock time.  A
recorded pipeline bubble is one event that must answer every firing
query exactly as one latch event per pipeline register would.
"""

import pytest

from repro.gpu.bits import float_to_bits
from repro.gpu.fault_plane import TransientFault
from repro.gpu.isa import CHARACTERIZED_OPCODES, CompareOp, Opcode
from repro.gpu.program import ProgramBuilder
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.trace import GoldenTraceRecorder
from repro.rtl import make_microbenchmark, make_tmxm_bench


def _fadd_program():
    b = ProgramBuilder("rec")
    b.gld(2, 0, offset=0x100)
    b.gld(3, 0, offset=0x200)
    b.fadd(5, 2, 3)
    b.gst(0, 5, offset=0x300)
    b.exit()
    return b.build()


def _fadd_image(values_a, values_b):
    return {0x100: [float_to_bits(v) for v in values_a],
            0x200: [float_to_bits(v) for v in values_b]}


class TestDispatchSchedule:
    def test_steps_mirror_executed_instructions(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder()
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        opcodes = [s.opcode for s in rec.steps]
        assert opcodes == [Opcode.GLD.value, Opcode.GLD.value,
                           Opcode.FADD.value, Opcode.GST.value,
                           Opcode.EXIT.value]
        # record_ctrl runs for every dispatched step, EXIT included
        assert all(s.ctrl is not None for s in rec.steps)
        assert rec.total_cycles > 0

    def test_beat_records_carry_golden_operands_and_results(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder()
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        (fadd_step,) = [s for s in rec.steps
                        if s.opcode == Opcode.FADD.value]
        beat = fadd_step.beats[0]
        assert beat.lanes[:2] == (0, 1)
        assert beat.group_mask & 0b11 == 0b11
        assert beat.operands[0][:2] == (float_to_bits(1.5),
                                        float_to_bits(0.25))
        assert beat.results[:2] == (float_to_bits(1.75),
                                    float_to_bits(6.0))

    def test_branch_votes_are_post_negation_decisions(self):
        b = ProgramBuilder("loop")
        b.mov(1, b.imm(0))
        b.label("top")
        b.iadd(1, 1, b.imm(1))
        b.iset(b.pred(0), 1, b.imm(3), CompareOp.LT)
        b.bra("top", predicate=b.pred(0))
        b.gst(0, 1, offset=0x300)
        b.exit()
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder()
        sm.launch(b.build(), 2, recorder=rec)
        branches = [s.branch for s in rec.steps if s.branch is not None]
        # counter hits 1, 2 (taken) then 3 (fall through), both threads
        assert len(branches) == 3
        assert [sorted(br.votes) for br in branches] == [
            [(0, True), (1, True)],
            [(0, True), (1, True)],
            [(0, False), (1, False)],
        ]


class TestLatchSchedule:
    def _recorded(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder()
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        return sm, rec

    def test_fp32_latches_land_in_the_schedule(self):
        sm, rec = self._recorded()
        keys = [ff.key for ff in sm.plane.flipflops("fp32")
                if rec.first_latch_at_or_after(ff.key, 0) is not None]
        assert keys, "an FADD run must latch fp32 stage registers"
        for key in keys:
            cycle, step, beat = rec.first_latch_at_or_after(key, 0)
            assert 0 <= cycle <= rec.total_cycles
            assert 0 <= step < len(rec.steps)
            assert beat >= GoldenTraceRecorder.NO_BEAT

    def test_bisection_is_at_or_after(self):
        _, rec = self._recorded()
        key = next(k for k in rec._event_cycles)
        cycles = rec._event_cycles[key]
        assert cycles == sorted(cycles)
        first = rec.first_latch_at_or_after(key, 0)
        # querying at the event's own cycle still returns it (a latch at
        # the injection instant consumes the transient, mirroring
        # FaultPlane.latch's arming rule)
        assert rec.first_latch_at_or_after(key, first[0]) == first
        # past the last event the transient decays unconsumed
        assert rec.first_latch_at_or_after(key, cycles[-1] + 1) is None

    def test_unknown_key_never_fires(self):
        _, rec = self._recorded()
        assert rec.first_latch_at_or_after(("fp32", "no.such", 0), 0) is None


class _PerRegisterBubbles(GoldenTraceRecorder):
    """Reference recorder: each bubble is one latch event per register
    of the module, the representation the one-event bubble replaced."""

    def __init__(self, plane) -> None:
        super().__init__()
        self._plane = plane

    def on_bubble(self, module: str, cycle: int) -> None:
        for ff in self._plane.flipflops(module):
            self.on_latch(module, ff.name, ff.lane, cycle)

    def every_answer(self, key, horizon: int):
        """``first_latch_at_or_after(key, c)`` for every ``c < horizon``,
        built in one pass: the answer is the first event at or after
        ``c``, constant between consecutive event cycles."""
        answers, last = [], -1
        for cycle, site in zip(self._event_cycles.get(key, ()),
                               self._event_sites.get(key, ())):
            if cycle > last:
                answers += [(cycle, *site)] * (cycle - last)
                last = cycle
        return answers + [None] * (horizon - 1 - last)


class TestBubbleEvents:
    @pytest.mark.parametrize("bench", [
        *(make_microbenchmark(op, "M", seed=3)
          for op in CHARACTERIZED_OPCODES),
        make_tmxm_bench("Random", seed=3),
    ], ids=lambda bench: bench.name)
    def test_same_firing_answers_as_per_register_bubbles(self, bench):
        sm = StreamingMultiprocessor()
        recorders = [GoldenTraceRecorder(), _PerRegisterBubbles(sm.plane)]
        for rec in recorders:
            sm.launch(bench.program, bench.n_threads,
                      memory_image=bench.memory_image,
                      initial_registers=bench.initial_registers,
                      recorder=rec)
        one_event, per_register = recorders
        assert one_event._bubble_cycles and not per_register._bubble_cycles
        horizon = one_event.total_cycles + 2
        for ff in sm.plane.flipflops():
            assert ([one_event.first_latch_at_or_after(ff.key, c)
                     for c in range(horizon)]
                    == per_register.every_answer(ff.key, horizon)), ff

    def test_recorded_bubbles_skip_plane_latch(self, monkeypatch):
        sm = StreamingMultiprocessor()
        calls = {"bubbles": 0, "latches": 0}
        in_bubble = []
        latch_bubble, latch = sm.pipeline.latch_bubble, sm.plane.latch

        def bubble():
            calls["bubbles"] += 1
            in_bubble.append(True)
            try:
                latch_bubble()
            finally:
                in_bubble.pop()

        def counting_latch(*args, **kwargs):
            calls["latches"] += bool(in_bubble)
            return latch(*args, **kwargs)

        monkeypatch.setattr(sm.pipeline, "latch_bubble", bubble)
        monkeypatch.setattr(sm.plane, "latch", counting_latch)
        rec = GoldenTraceRecorder()
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        assert calls["bubbles"] > 0
        assert calls["latches"] == 0
        assert len(rec._bubble_cycles["pipeline"]) == calls["bubbles"]


class TestGuards:
    def test_launch_rejects_recorder_with_fault(self):
        sm = StreamingMultiprocessor()
        ff = sm.plane.flipflops("fp32")[0]
        fault = TransientFault(ff, bit=0, cycle=1)
        with pytest.raises(ValueError, match="fault-free"):
            sm.launch(_fadd_program(), 1,
                      memory_image=_fadd_image([1.0], [1.0]),
                      fault=fault, recorder=GoldenTraceRecorder())

    def test_arm_while_recording_is_rejected(self):
        sm = StreamingMultiprocessor()
        sm.plane.attach_recorder(GoldenTraceRecorder())
        ff = sm.plane.flipflops("fp32")[0]
        with pytest.raises(RuntimeError, match="recorder"):
            sm.plane.arm(TransientFault(ff, bit=0, cycle=1))
        sm.plane.detach_recorder()

    def test_attach_while_armed_is_rejected(self):
        sm = StreamingMultiprocessor()
        ff = sm.plane.flipflops("fp32")[0]
        sm.plane.arm(TransientFault(ff, bit=0, cycle=1))
        with pytest.raises(RuntimeError, match="armed"):
            sm.plane.attach_recorder(GoldenTraceRecorder())
        sm.plane.disarm()


class TestPassiveHotPath:
    """Golden runs must never reach ``plane.latch`` — the guards in every
    functional unit (including ``SfuController._latch``, the historical
    hot spot) skip the dispatch entirely while the plane is passive."""

    def test_golden_run_makes_zero_latch_calls(self, monkeypatch):
        sm = StreamingMultiprocessor()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("plane.latch reached during a golden run")

        monkeypatch.setattr(sm.plane, "latch", boom)
        b = ProgramBuilder("mix")
        b.gld(2, 0, offset=0x100)
        b.fsin(3, 2)          # SFU: controller + datapath stages
        b.fexp(4, 3)
        b.rcp(5, 4)
        b.fadd(6, 3, 4)       # fp32 pipeline
        b.ffma(7, 3, 4, 6)
        b.iadd(8, 0, 0)       # int pipeline
        b.gst(0, 7, offset=0x300)
        b.exit()
        image = {0x100: [float_to_bits(0.5), float_to_bits(1.25)]}
        result = sm.launch(b.build(), 2, memory_image=image)
        assert result.cycles > 0
        assert sm.plane.passive

    def test_recorder_reenables_latch_dispatch(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder()
        b = ProgramBuilder("sfu")
        b.gld(2, 0, offset=0x100)
        b.fsin(3, 2)
        b.gst(0, 3, offset=0x300)
        b.exit()
        sm.launch(b.build(), 1,
                  memory_image={0x100: [float_to_bits(0.5)]}, recorder=rec)
        sfu_keys = [ff.key for ff in sm.plane.flipflops("sfu")
                    if rec.first_latch_at_or_after(ff.key, 0) is not None]
        assert sfu_keys, "recording must capture SFU stage latches again"
