"""Streaming-multiprocessor execution tests."""

import math

import numpy as np
import pytest

from repro.errors import GpuHangError, InvalidProgramCounterError
from repro.gpu.bits import bits_to_float, bits_to_int, float_to_bits, int_to_bits
from repro.gpu.fault_plane import FlipFlop, TransientFault
from repro.gpu.isa import CompareOp, Opcode, Predicate
from repro.gpu.program import ProgramBuilder
from repro.gpu.sm import SMConfig, StreamingMultiprocessor


@pytest.fixture
def sm():
    return StreamingMultiprocessor()


def _run_single_op(sm, emit, inputs_a, inputs_b, out_kind="f32",
                   inputs_c=None):
    n = len(inputs_a)
    b = ProgramBuilder("t")
    b.gld(2, 0, offset=0x100)
    b.gld(3, 0, offset=0x200)
    if inputs_c is not None:
        b.gld(4, 0, offset=0x280)
    emit(b)
    b.gst(0, 5, offset=0x300)
    b.exit()
    conv = float_to_bits if out_kind == "f32" else int_to_bits
    image = {0x100: [conv(v) for v in inputs_a],
             0x200: [conv(v) for v in inputs_b]}
    if inputs_c is not None:
        image[0x280] = [conv(v) for v in inputs_c]
    result = sm.launch(b.build(), n, memory_image=image)
    words = result.memory.read_words(0x300, n)
    if out_kind == "f32":
        return [bits_to_float(w) for w in words]
    return [bits_to_int(w) for w in words]


class TestArithmeticExecution:
    def test_fadd(self, sm):
        out = _run_single_op(sm, lambda b: b.fadd(5, 2, 3),
                             [1.5, -2.0], [0.25, 8.0])
        assert out == [1.75, 6.0]

    def test_ffma(self, sm):
        out = _run_single_op(sm, lambda b: b.ffma(5, 2, 3, 4),
                             [2.0], [3.0], inputs_c=[1.0])
        assert out == [7.0]

    def test_imul(self, sm):
        out = _run_single_op(sm, lambda b: b.imul(5, 2, 3),
                             [-3, 7], [9, 11], out_kind="u32")
        assert out == [-27, 77]

    def test_fsin_through_sfu(self, sm):
        out = _run_single_op(sm, lambda b: b.fsin(5, 2),
                             [0.5, 1.0], [0.0, 0.0])
        assert out[0] == pytest.approx(math.sin(0.5), abs=1e-5)
        assert out[1] == pytest.approx(math.sin(1.0), abs=1e-5)

    def test_all_64_threads(self, sm):
        values = [float(i) for i in range(64)]
        out = _run_single_op(sm, lambda b: b.fadd(5, 2, 3),
                             values, values)
        assert out == [2.0 * v for v in values]


class TestControlFlow:
    def test_uniform_loop(self, sm):
        b = ProgramBuilder("loop")
        b.mov(1, b.imm(0))
        b.label("top")
        b.iadd(1, 1, b.imm(1))
        b.iset(Predicate(0), 1, b.imm(5), CompareOp.LT)
        b.bra("top", predicate=Predicate(0))
        b.gst(0, 1, offset=0x300)
        b.exit()
        result = sm.launch(b.build(), 8)
        assert result.memory.read_words(0x300, 8) == [5] * 8

    def test_predicated_store(self, sm):
        b = ProgramBuilder("pred")
        b.iset(Predicate(0), 0, b.imm(4), CompareOp.LT)
        b.mov(1, b.imm(7))
        from repro.gpu.isa import Instruction, Register

        b.emit(Instruction(Opcode.GST, None, (Register(0), Register(1)),
                           predicate=Predicate(0), offset=0x300))
        b.exit()
        result = sm.launch(b.build(), 8)
        words = result.memory.read_words(0x300, 8)
        assert words == [7, 7, 7, 7, 0, 0, 0, 0]

    def test_watchdog_fires_on_infinite_loop(self, sm):
        b = ProgramBuilder("spin")
        b.label("top")
        b.bra("top")
        b.exit()
        with pytest.raises(GpuHangError):
            sm.launch(b.build(), 8, max_cycles=500)

    def test_thread_id_abi(self, sm):
        b = ProgramBuilder("tid")
        b.gst(0, 0, offset=0x300)
        b.exit()
        result = sm.launch(b.build(), 40)
        assert result.memory.read_words(0x300, 40) == list(range(40))

    def test_initial_registers(self, sm):
        b = ProgramBuilder("init")
        b.gst(0, 9, offset=0x300)
        b.exit()
        result = sm.launch(b.build(), 4,
                           initial_registers={9: (5, 6, 7, 8)})
        assert result.memory.read_words(0x300, 4) == [5, 6, 7, 8]


class TestLaunchValidation:
    def test_thread_count_bounds(self, sm):
        b = ProgramBuilder("x")
        b.exit()
        program = b.build()
        with pytest.raises(ValueError):
            sm.launch(program, 0)
        with pytest.raises(ValueError):
            sm.launch(program, 10_000)

    def test_warp_size_must_divide(self):
        with pytest.raises(ValueError):
            SMConfig(n_lanes=7)

    def test_deterministic_cycles(self, sm):
        b = ProgramBuilder("det")
        b.fadd(5, 0, 0)
        b.exit()
        first = sm.launch(b.build(), 16)
        second = sm.launch(b.build(), 16)
        assert first.cycles == second.cycles


class TestFaultsThroughSm:
    def _program(self):
        b = ProgramBuilder("w")
        b.gld(2, 0, offset=0x100)
        b.fadd(5, 2, 2)
        b.gst(0, 5, offset=0x300)
        b.exit()
        return b.build()

    def test_pc_fault_beyond_program_is_due(self, sm):
        program = self._program()
        image = {0x100: [float_to_bits(1.0)] * 8}
        golden = sm.launch(program, 8, memory_image=image)
        ff = FlipFlop("scheduler", "warp.pc", 12, 0, "control")
        fault = TransientFault(ff, 11, cycle=1, window=50)
        with pytest.raises(InvalidProgramCounterError):
            sm.launch(program, 8, memory_image=image, fault=fault,
                      max_cycles=10 * golden.cycles)

    def test_thread_base_fault_shifts_outputs(self, sm):
        program = self._program()
        image = {0x100: [float_to_bits(float(i)) for i in range(8)]}
        ff = FlipFlop("scheduler", "warp.thread_base", 8, 0, "control")
        fault = TransientFault(ff, 6, cycle=0, window=50)
        result = sm.launch(program, 8, memory_image=image, fault=fault,
                           max_cycles=5000)
        # base 0 -> 64: every thread id is out of range, no output written
        assert result.memory.read_words(0x300, 8) == [0] * 8


class TestCheckpointResume:
    """A fault-free run resumed from any dispatch-loop boundary equals
    the straight launch: the checkpoint holds the whole run state."""

    def _program(self):
        b = ProgramBuilder("resume")
        b.gld(2, 0, offset=0x100)
        b.sst(0, 2)                      # stage into shared memory
        b.bar()
        b.mov(1, b.imm(0))
        b.label("top")
        b.iadd(1, 1, b.imm(1))
        b.sld(3, 1)                      # another thread's staged word
        b.iadd(2, 2, 3)
        b.iset(Predicate(0), 1, b.imm(3), CompareOp.LT)
        b.bra("top", predicate=Predicate(0))
        b.iset(Predicate(1), 0, b.imm(20), CompareOp.GE)
        b.gst(0, 2, offset=0x300)
        b.exit()
        return b.build()

    def test_resume_from_every_boundary(self):
        program = self._program()
        n_threads = 40  # two warps, the tail warp trimmed to 8 threads
        image = {0x100: list(range(7, 7 + n_threads))}
        straight = StreamingMultiprocessor().launch(
            program, n_threads, memory_image=image, trace=True)
        walker = StreamingMultiprocessor()
        resumer = StreamingMultiprocessor()
        boundaries = []
        for cycle in walker.walk(program, n_threads, memory_image=image):
            checkpoint = walker.checkpoint()
            assert checkpoint.cycle == cycle
            resumed = resumer.launch(program, n_threads, memory_image=image,
                                     trace=True, start=checkpoint)
            assert resumed.cycles == straight.cycles
            # the same dispatch schedule: warp order, PCs and cycles
            assert resumed.trace == [e for e in straight.trace
                                     if e.cycle >= cycle]
            assert resumed.memory.snapshot() == straight.memory.snapshot()
            # general-purpose registers and predicates
            assert (resumed.registers.snapshot()
                    == straight.registers.snapshot())
            boundaries.append(cycle)
        assert boundaries == sorted(set(boundaries))
        # the barrier release is an iteration that dispatches no step
        assert len(boundaries) == len(straight.trace) + 1
