"""Vectorized fault-parallel RTL engine tests.

The engine's contract is **bit-identity with the scalar injector**: for
any fixed-seed fault list the per-fault classifications (outcome,
corrupted values, DUE reasons, fired/expired bookkeeping) and the merged
campaign reports must match the one-simulation-per-fault path exactly.
These tests pin that contract at three granularities — per fault, per
campaign cell, and per grid (including the scalar-fallback modules) —
plus the norm.shift propagation regression the scalar comparison relies
on, the dirty-lane recomputes that follow a fired fault, and the
golden-checkpoint forks the scalar fallbacks start from.
"""

import pytest

from repro.gpu.bits import float_to_bits
from repro.gpu.fault_plane import (
    FaultPlane,
    StuckAtFault,
    TargetedBurst,
    TransientFault,
)
from repro.gpu.isa import Opcode
from repro.gpu.program import ProgramBuilder
from repro.gpu.sm import SMConfig, StreamingMultiprocessor
from repro.gpu.trace import GoldenTraceRecorder
from repro.rtl import (
    Outcome,
    RTLInjector,
    VectorizedRTLInjector,
    generate_fault_list,
    generate_model_fault_list,
    make_microbenchmark,
    make_tmxm_bench,
    run_campaign,
    run_grid,
    run_tmxm_grid,
)
from repro.rtl.microbench import Microbenchmark
from repro.rtl.vectorized import REPLAY_MODULES, vector_compute


def _same_classification(scalar, vectorized):
    assert vectorized.outcome is scalar.outcome
    assert vectorized.fault_fired == scalar.fault_fired
    assert vectorized.due_reason == scalar.due_reason
    assert [(c.thread, c.address, c.golden_bits, c.faulty_bits)
            for c in vectorized.corrupted] == \
        [(c.thread, c.address, c.golden_bits, c.faulty_bits)
         for c in scalar.corrupted]


def _count_recomputes(monkeypatch):
    """Record every dirty-lane recompute, so a comparison cannot pass
    without exercising them."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return vector_compute(*args, **kwargs)

    monkeypatch.setattr("repro.rtl.vectorized.vector_compute", spy)
    return calls


def _count_batches(monkeypatch):
    """Record the size of every batch ``inject_batch`` classifies."""
    sizes = []
    inject_batch = VectorizedRTLInjector.inject_batch

    def spy(self, prepared, faults, *args, **kwargs):
        sizes.append(len(faults))
        return inject_batch(self, prepared, faults, *args, **kwargs)

    monkeypatch.setattr(VectorizedRTLInjector, "inject_batch", spy)
    return sizes


def _fmul_sfu_fadd_bench(n_threads=64):
    """``FMUL`` feeds ``FSIN`` and ``FEXP``, whose results feed ``FADD``.

    Operands in [0.5, 1.2] keep the product inside both SFU input ranges.
    """
    b = ProgramBuilder("fmul_sfu_fadd")
    b.gld(2, 0, offset=0x100)
    b.gld(3, 0, offset=0x200)
    b.fmul(4, 2, 3)
    b.fsin(5, 4)
    b.fexp(6, 4)
    b.fadd(7, 5, 6)
    b.gst(0, 7, offset=0x300)
    b.exit()
    operands = [0.5 + 0.7 * ((37 * i) % n_threads) / n_threads
                for i in range(2 * n_threads)]
    return Microbenchmark(
        name="fmul_sfu_fadd", opcode=Opcode.FMUL, input_range="M",
        program=b.build(),
        memory_image={
            0x100: tuple(float_to_bits(v) for v in operands[:n_threads]),
            0x200: tuple(float_to_bits(v) for v in operands[n_threads:])},
        output_regions=((0x300, n_threads),), value_kind="f32",
        n_threads=n_threads)


class TestPerFaultEquivalence:
    @pytest.mark.parametrize("opcode,module", [
        (Opcode.FADD, "fp32"),
        (Opcode.FFMA, "fp32"),
        (Opcode.IMAD, "int"),
        (Opcode.FSIN, "sfu"),
        (Opcode.GLD, "pipeline"),
    ])
    def test_matches_scalar_injector(self, opcode, module):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(opcode, "M", seed=5)
        prepared = vec.prepare(bench)
        faults = generate_fault_list(
            injector.plane, module, 40, prepared.golden.cycles, seed=9)
        batch = vec.inject_batch(prepared, faults)
        assert len(batch) == len(faults)
        outcomes = set()
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)
            outcomes.add(vectorized.outcome)
        # a 40-fault sample must not be all-masked, or the comparison
        # would vacuously pass without exercising the replay datapaths
        assert outcomes - {Outcome.MASKED}, \
            f"fault sample for {opcode}/{module} never propagated"

    def test_dirty_sfu_and_fadd_lanes_match_scalar_injector(
            self, monkeypatch):
        # a transient in every fp32 register at its first latch: those
        # the FMUL latches leave dirty FSIN, FEXP and FADD operands
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = _fmul_sfu_fadd_bench()
        prepared = vec.prepare(bench)
        faults = []
        for i, ff in enumerate(injector.plane.flipflops("fp32")):
            site = prepared.recorder.first_latch_at_or_after(ff.key, 0)
            if site is not None:
                faults.append(TransientFault(ff, bit=7 * i % ff.width,
                                             cycle=site[0], window=1))
        recomputes = _count_recomputes(monkeypatch)
        batch = vec.inject_batch(prepared, faults)
        assert recomputes
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)
        assert {c.outcome for c in batch} - {Outcome.MASKED}

    def test_unfired_fault_is_instantly_masked(self):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        prepared = vec.prepare(bench)
        ff = injector.plane.flipflops("fp32")[0]
        fault = TransientFault(ff, bit=0,
                               cycle=prepared.golden.cycles + 100, window=4)
        vectorized = vec.inject_batch(prepared, [fault])[0]
        assert vectorized.outcome is Outcome.MASKED
        assert vectorized.fault_fired is False
        assert fault.expired is True
        assert fault.fired_cycle is None
        scalar = injector.inject(bench, prepared.golden, fault)
        _same_classification(scalar, vectorized)


class TestCampaignEquivalence:
    def test_grid_reports_bit_identical_including_fallback_modules(self):
        kwargs = dict(opcodes=(Opcode.FADD, Opcode.IADD),
                      input_ranges=("S",), n_faults=25, seed=7)
        scalar = run_grid(vectorize=False, **kwargs)
        vectorized = run_grid(vectorize=True, **kwargs)
        modules = {r.module for r in scalar}
        assert modules - REPLAY_MODULES, \
            "the grid must include scalar-fallback (control) modules"
        assert [r.to_dict() for r in vectorized] == \
            [r.to_dict() for r in scalar]
        assert [r.to_json() for r in vectorized] == \
            [r.to_json() for r in scalar]

    @pytest.mark.parametrize("use_shared_memory", [False, True])
    def test_tmxm_fu_cell_recomputes_dirty_lanes_bit_identically(
            self, monkeypatch, use_shared_memory):
        # a fired int fault corrupts tile index arithmetic, leaving dirty
        # IADD, ISET and FFMA lanes downstream of the fire
        kwargs = dict(tile_kinds=("Random",), modules=("int",),
                      n_faults=150, seed=1,
                      use_shared_memory=use_shared_memory)
        scalar = run_tmxm_grid(vectorize=False, **kwargs)
        recomputes = _count_recomputes(monkeypatch)
        vectorized = run_tmxm_grid(vectorize=True, **kwargs)
        assert recomputes
        assert [r.to_json() for r in vectorized] == \
            [r.to_json() for r in scalar]

    def test_register_file_cell_runs_through_inject_batch(
            self, monkeypatch):
        # persistent-state (SRAM) modules bypass the latch plane, so the
        # trace cannot resolve them: inject_batch forks every one from a
        # golden checkpoint, which is exact because the register file
        # ignores every access before the fault's cycle
        bench = make_microbenchmark(Opcode.IADD, "M", seed=3)
        config = SMConfig(ecc_enabled=False)
        kwargs = dict(module="register_file", n_faults=20, seed=11,
                      config=config)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        batches = _count_batches(monkeypatch)
        vectorized = run_campaign(bench, vectorize=True, **kwargs)
        assert batches == [20]
        assert vectorized.to_json() == scalar.to_json()

    def test_vectorize_flag_reaches_single_cell_campaign(self):
        bench = make_microbenchmark(Opcode.FMUL, "S", seed=2)
        kwargs = dict(module="fp32", n_faults=30, seed=4)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        vectorized = run_campaign(bench, vectorize=True, **kwargs)
        assert vectorized.to_dict() == scalar.to_dict()

    def test_burst_campaign_routes_scalar_under_auto(self):
        # non-transient models re-corrupt across the window, which the
        # single-flip replay engine cannot express: the batch engine
        # must hand every burst to the scalar injector and match it
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        kwargs = dict(module="fp32", n_faults=25, seed=6,
                      fault_model="burst", burst_width=3, burst_window=4)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        vectorized = run_campaign(bench, vectorize=True, **kwargs)
        assert vectorized.to_dict() == scalar.to_dict()

    def test_stuck_at_batch_routes_scalar(self):
        # the permanently-armed model never goes passive, so the batch
        # engine must fall back fault-by-fault — exact equality again
        from repro.gpu.fault_plane import StuckAtFault

        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=8)
        prepared = vec.prepare(bench)
        ffs = injector.plane.flipflops("fp32")
        faults = [StuckAtFault(ffs[i % len(ffs)], bit=0,
                               stuck_at=i % 2) for i in range(6)]
        batch = vec.inject_batch(prepared, faults)
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)


class TestNormShiftPropagation:
    """Regression for the norm.shift dead read-back: the latched (and
    therefore faultable) shift amount must feed the barrel shifter, so a
    transient captured by norm.shift mis-normalises the FADD result."""

    def test_norm_shift_fault_corrupts_fadd_result(self):
        injector = RTLInjector()
        sm = injector.sm
        rec = GoldenTraceRecorder()
        from repro.gpu.program import ProgramBuilder
        b = ProgramBuilder("normshift")
        b.gld(2, 0, offset=0x100)
        b.gld(3, 0, offset=0x200)
        b.fadd(5, 2, 3)
        b.gst(0, 5, offset=0x300)
        b.exit()
        program = b.build()
        image = {0x100: [float_to_bits(1.5)],
                 0x200: [float_to_bits(0.25)]}
        sm.launch(program, 1, memory_image=image, recorder=rec)
        key = ("fp32", "norm.shift", 0)
        site = rec.first_latch_at_or_after(key, 0)
        assert site is not None, "FADD must latch norm.shift for lane 0"
        cycle = site[0]

        ff = next(f for f in sm.plane.flipflops("fp32")
                  if f.name == "norm.shift" and f.lane == 0)
        golden = sm.launch(program, 1, memory_image=image)
        golden_word = golden.memory.read_words(0x300, 1)[0]
        fault = TransientFault(ff, bit=1, cycle=cycle, window=1)
        faulty = sm.launch(program, 1, memory_image=image, fault=fault)
        faulty_word = faulty.memory.read_words(0x300, 1)[0]
        assert fault.fired_cycle == cycle
        assert faulty_word != golden_word, \
            "a fired norm.shift transient must mis-normalise the sum"

    def test_norm_shift_faults_reach_sdc_in_a_campaign(self):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        prepared = vec.prepare(bench)
        ffs = [f for f in injector.plane.flipflops("fp32")
               if f.name == "norm.shift"]
        assert ffs
        faults = []
        for ff in ffs:
            site = prepared.recorder.first_latch_at_or_after(ff.key, 0)
            if site is not None:
                faults.append(TransientFault(ff, bit=1, cycle=site[0],
                                             window=1))
        assert faults
        batch = vec.inject_batch(prepared, faults)
        sdc = [c for c in batch if c.outcome is Outcome.SDC]
        assert sdc, "norm.shift strikes at latch instants must yield SDCs"
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)


def _forked_batch(monkeypatch, bench, make_faults):
    """Run ``make_faults(plane, prepared)`` through ``inject_batch`` and
    compare every fault with a full scalar run from cycle 0.

    Returns ``(faults, batch, starts)``; ``starts`` maps the id of each
    fault the batch handed to the scalar injector to its checkpoint.
    """
    injector = RTLInjector()
    vec = VectorizedRTLInjector(injector)
    prepared = vec.prepare(bench)
    faults = make_faults(injector.plane, prepared)
    starts = {}
    inject = injector.inject

    def spy(bench, golden, fault, start=None):
        starts[id(fault)] = start
        return inject(bench, golden, fault, start=start)

    monkeypatch.setattr(injector, "inject", spy)
    batch = vec.inject_batch(prepared, faults)
    bookkeeping = [(f.fired_cycle, f.expired) for f in faults]
    reference = RTLInjector()
    for fault, vectorized, (fired_cycle, expired) in zip(faults, batch,
                                                         bookkeeping):
        scalar = reference.inject(bench, prepared.golden, fault)
        _same_classification(scalar, vectorized)
        assert fault.fired_cycle == fired_cycle
        # trace-resolved unfired faults are marked expired even when the
        # run ends before their deadline; the scalar path must match
        if id(fault) in starts:
            assert fault.expired == expired
    return faults, batch, starts


def _sampled(modules, n_transient, n_burst):
    def make_faults(plane, prepared):
        faults = []
        for module in modules:
            for model, n in (("transient", n_transient),
                             ("burst", n_burst)):
                faults += generate_model_fault_list(
                    plane, module, n, prepared.golden.cycles, seed=13,
                    fault_model=model)
        return faults
    return make_faults


def _dispatches(bench):
    """(boundary cycle, warp, pc) of every dispatched golden step."""
    result = StreamingMultiprocessor().launch(
        bench.program, bench.n_threads, memory_image=bench.memory_image,
        initial_registers=bench.initial_registers, trace=True)
    return [(e.cycle, e.warp_id, e.pc) for e in result.trace]


class TestForkedFallbacks:
    """Scalar fallbacks fork from the golden checkpoint at the last
    dispatch-loop boundary at or before their activation cycle; each
    must classify, and leave ``fired_cycle``/``expired``, exactly as a
    full ``RTLInjector.inject`` run from cycle 0."""

    @pytest.mark.parametrize("opcode,modules", [
        (Opcode.FADD, ("scheduler", "pipeline")),
        (Opcode.FSIN, ("sfu", "sfu_controller")),
    ])
    def test_micro_benchmark_control_cells(self, monkeypatch, opcode,
                                           modules):
        bench = make_microbenchmark(opcode, "M", seed=5)
        faults, batch, starts = _forked_batch(
            monkeypatch, bench, _sampled(modules, 16, 8))
        forked = [f for f in faults if starts.get(id(f)) is not None]
        assert {f.flipflop.module for f in forked} == set(modules)
        assert any(isinstance(f, TargetedBurst) for f in forked)
        assert all(starts[id(f)].cycle <= f.cycle for f in forked)

    @pytest.mark.parametrize("use_shared_memory", [False, True])
    def test_tmxm_tiles(self, monkeypatch, use_shared_memory):
        # the shared-memory variant has a barrier: its release is a
        # loop iteration that dispatches no step
        bench = make_tmxm_bench("Random", seed=1,
                                use_shared_memory=use_shared_memory)
        faults, batch, starts = _forked_batch(
            monkeypatch, bench, _sampled(("scheduler", "pipeline"), 6, 3))
        assert [f for f in faults if starts.get(id(f)) is not None]
        assert {c.outcome for c in batch} - {Outcome.MASKED}

    def test_every_due_kind_and_the_edge_activations(self, monkeypatch):
        bench = make_tmxm_bench("Random", seed=1, use_shared_memory=True)
        dispatches = _dispatches(bench)
        fetch = SMConfig().fetch_ticks
        barrier = next(pc for pc in range(len(bench.program))
                       if bench.program[pc].opcode is Opcode.BAR)
        # decode latches of steps dispatched after the barrier release
        late = [(cycle + fetch, pc) for cycle, _, pc in dispatches
                if pc > barrier]
        sld = next(c for c, pc in late
                   if bench.program[pc].opcode is Opcode.SLD)
        boundary = late[5][0] - fetch

        def make_faults(plane, prepared):
            ff = {f.key: f for f in plane.flipflops()}
            assert boundary in prepared.recorder.boundaries
            return [
                TransientFault(ff["pipeline", "de.opcode", -1], 7,
                               late[3][0]),
                TransientFault(ff["pipeline", "de.dest", -1], 6,
                               late[4][0]),
                TransientFault(ff["pipeline", "de.imm", -1], 20, sld),
                # activates exactly at a boundary: forked from there
                TransientFault(ff["scheduler", "warp.pc", 0], 11,
                               boundary, window=4),
                # active from power-on: keeps the full launch
                StuckAtFault(ff["scheduler", "warp.thread_base", 1], 3,
                             stuck_at=1, cycle=0),
            ]

        faults, batch, starts = _forked_batch(monkeypatch, bench,
                                              make_faults)
        reasons = [c.due_reason.split(":")[0] for c in batch[:4]]
        assert reasons == ["IllegalInstructionError", "RegisterFaultError",
                           "MemoryFaultError", "InvalidProgramCounterError"]
        assert starts[id(faults[3])].cycle == boundary
        assert all(starts[id(f)].cycle < f.cycle for f in faults[:3])
        assert starts[id(faults[4])] is None

    def test_watchdog_hang(self, monkeypatch):
        bench = make_microbenchmark(Opcode.BRA, "M", seed=5)
        branch = next(pc for pc in range(len(bench.program))
                      if bench.program[pc].opcode is Opcode.BRA)
        taken = bench.program.resolve(bench.program[branch].target)
        # a stuck branch target that points back above the branch loops
        # forever: clear the bits that lift it past the predicate set-up
        bit = 1
        assert (taken & ~(0b11 << bit)) < branch

        def make_faults(plane, prepared):
            ff = {f.key: f for f in plane.flipflops()}
            return [StuckAtFault(ff["pipeline", "de.branch_target", -1],
                                 bit, stuck_at=0, n_bits=2,
                                 cycle=prepared.recorder.boundaries[2])]

        faults, batch, starts = _forked_batch(monkeypatch, bench,
                                              make_faults)
        assert "watchdog expired" in batch[0].due_reason
        assert starts[id(faults[0])].cycle == faults[0].cycle
