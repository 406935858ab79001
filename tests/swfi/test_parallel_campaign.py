"""Parallel / checkpointed campaign runner and injection-state fixes.

The load-bearing invariant: batch randomness depends only on the batch
index (child seed *i* of the campaign seed), so a campaign's merged
report is bit-identical whether the batches ran serially, across worker
processes, or split over a checkpoint/resume boundary.
"""

import threading

import numpy as np
import pytest

from repro.errors import CampaignError
from repro.gpu.isa import Opcode
from repro.rng import make_rng, spawn_seed_range, spawn_seeds
from repro.rtl.classify import Outcome
from repro.adaptive import AdaptiveConfig, run_adaptive_pvf_campaign
from repro.swfi.campaign import (
    PVFReport,
    plan_batches,
    run_pvf_batch,
    run_pvf_campaign,
)
from repro.swfi.injector import SoftwareInjector
from repro.swfi.models import (
    ModuleWeightedSyndrome,
    RelativeErrorSyndrome,
    SingleBitFlip,
)
from repro.swfi.ops import SassOps
from repro.apps.base import GPUApplication


class MixedApp(GPUApplication):
    """FADDs then IMULs then a store: several opcodes, cheap to run."""

    name = "mixed"

    def run(self, ops):
        data = np.arange(16, dtype=np.float32)
        summed = ops.fadd(data, np.float32(1.0))
        scaled = ops.imul(np.arange(16, dtype=np.int32), 3)
        return ops.gst(summed + scaled.astype(np.float32))


class CountingApp(MixedApp):
    """MixedApp that counts how many times the workload executes."""

    def __init__(self):
        self.runs = 0

    def run(self, ops):
        self.runs += 1
        return super().run(ops)


class RunawayApp(GPUApplication):
    """A BRA loop whose trip count is an IADD result: a flipped high bit
    of the count asks for up to 2**30 more iterations."""

    name = "runaway"

    def run(self, ops):
        count = ops.iadd(np.array([6], np.int32), np.array([2], np.int32))
        trips = 0
        while ops.bra(trips < int(count[0])):
            trips += 1
        return ops.gst(np.array([trips], np.int32))


def _runaway_campaign(n_jobs=1):
    return run_pvf_campaign(RunawayApp(), SingleBitFlip(), 60, seed=3,
                            batch_size=10, n_jobs=n_jobs).to_dict()


def _on_a_thread(call):
    """*call*'s return value, computed on a fresh thread."""
    returned = []
    thread = threading.Thread(target=lambda: returned.append(call()),
                              daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "the campaign hung on its thread"
    return returned[0]


class TestSeedSharding:
    def test_spawn_seeds_prefix_stable(self):
        assert spawn_seeds(11, 4) == spawn_seeds(11, 9)[:4]

    def test_spawn_seed_range_matches_full_list(self):
        assert spawn_seed_range(11, 3, 4) == spawn_seeds(11, 7)[3:]

    def test_spawn_seed_range_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seed_range(0, -1, 2)

    def test_plan_batches(self):
        assert plan_batches(120, 50) == [50, 50, 20]
        assert plan_batches(50, 50) == [50]
        assert plan_batches(0, 50) == []

    def test_plan_batches_rejects_bad_sizes(self):
        with pytest.raises(CampaignError):
            plan_batches(10, 0)
        with pytest.raises(CampaignError):
            plan_batches(-1)


class TestMerge:
    def test_serial_equals_manual_batch_merge(self):
        """The serial campaign is exactly the ordered merge of its batches."""
        app, model = MixedApp(), SingleBitFlip()
        serial = run_pvf_campaign(app, model, 120, seed=13, batch_size=50)
        sizes = plan_batches(120, 50)
        seeds = spawn_seed_range(13, 0, len(sizes))
        merged = PVFReport.merge([
            run_pvf_batch(app, model, size, batch_seed)
            for size, batch_seed in zip(sizes, seeds)])
        assert serial.to_dict() == merged.to_dict()

    def test_merge_rejects_mismatched_reports(self):
        a = PVFReport("app", "m1", n_injections=1, n_masked=1)
        b = PVFReport("app", "m2", n_injections=1, n_masked=1)
        with pytest.raises(CampaignError):
            PVFReport.merge([a, b])
        with pytest.raises(CampaignError):
            PVFReport.merge([])

    def test_roundtrip_dict(self):
        report = run_pvf_campaign(MixedApp(), SingleBitFlip(), 40, seed=1)
        assert PVFReport.from_dict(report.to_dict()).to_dict() == \
            report.to_dict()


class TestParallelDeterminism:
    @pytest.mark.multicore
    def test_bitflip_parallel_identical(self):
        app, model = MixedApp(), SingleBitFlip()
        serial = run_pvf_campaign(app, model, 120, seed=3, batch_size=30)
        parallel = run_pvf_campaign(app, model, 120, seed=3, batch_size=30,
                                    n_jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    @pytest.mark.multicore
    def test_syndrome_parallel_identical(self, small_database):
        app = MixedApp()
        model = RelativeErrorSyndrome(small_database)
        serial = run_pvf_campaign(app, model, 80, seed=9, batch_size=20)
        parallel = run_pvf_campaign(app, model, 80, seed=9, batch_size=20,
                                    n_jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_parallel_rejects_shared_injector(self):
        app = MixedApp()
        with pytest.raises(CampaignError):
            run_pvf_campaign(app, SingleBitFlip(), 10, n_jobs=2,
                             injector=SoftwareInjector(app))

    def test_zero_injections(self):
        report = run_pvf_campaign(MixedApp(), SingleBitFlip(), 0, seed=0)
        assert report.n_injections == 0
        assert report.app_name == "mixed"


class TestCheckpoint:
    def test_resume_skips_finished_batches(self, tmp_path):
        app, model = MixedApp(), SingleBitFlip()
        path = tmp_path / "campaign.jsonl"
        full = run_pvf_campaign(app, model, 100, seed=5, batch_size=25,
                                checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 4  # header + one record per batch
        # keep the header and the first two batches, then resume
        path.write_text("\n".join(lines[:3]) + "\n")
        counting = CountingApp()
        resumed = run_pvf_campaign(counting, model, 100, seed=5,
                                   batch_size=25, checkpoint=path,
                                   resume=True)
        assert resumed.to_dict() == full.to_dict()
        # golden pass + one app run per remaining injection (2 batches)
        assert counting.runs == 1 + 50

    def test_resume_rejects_different_campaign(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_pvf_campaign(MixedApp(), SingleBitFlip(), 20, seed=5,
                         checkpoint=path)
        with pytest.raises(CampaignError):
            run_pvf_campaign(MixedApp(), SingleBitFlip(), 20, seed=6,
                             checkpoint=path, resume=True)

    def test_resume_requires_path(self):
        with pytest.raises(CampaignError):
            run_pvf_campaign(MixedApp(), SingleBitFlip(), 10, resume=True)

    def test_corrupt_trailing_line_warns_and_reruns(self, tmp_path):
        """A journal torn by a mid-write kill resumes, minus one batch."""
        app, model = MixedApp(), SingleBitFlip()
        path = tmp_path / "campaign.jsonl"
        full = run_pvf_campaign(app, model, 100, seed=5, batch_size=25,
                                checkpoint=path)
        text = path.read_text()
        path.write_text(text[:len(text) - 30])  # chop the final record
        with pytest.warns(UserWarning, match="corrupt checkpoint line"):
            resumed = run_pvf_campaign(app, model, 100, seed=5,
                                       batch_size=25, checkpoint=path,
                                       resume=True)
        assert resumed.to_dict() == full.to_dict()
        # the damaged journal was compacted and re-completed
        assert len(path.read_text().splitlines()) == 1 + 4

    def test_fresh_run_overwrites_stale_journal(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_pvf_campaign(MixedApp(), SingleBitFlip(), 20, seed=5,
                         checkpoint=path)
        run_pvf_campaign(MixedApp(), SingleBitFlip(), 20, seed=6,
                         checkpoint=path)  # no resume: start over
        assert len(path.read_text().splitlines()) == 2


class TestRunUntil:
    """Inject-until-tight runs go through the adaptive PVF runner."""

    def test_serial_reproducible(self):
        kwargs = dict(config=AdaptiveConfig(target_ci=0.1, min_per_cell=50),
                      seed=2, batch_size=50)
        a = run_adaptive_pvf_campaign(MixedApp(), SingleBitFlip(), 200,
                                      **kwargs)
        b = run_adaptive_pvf_campaign(MixedApp(), SingleBitFlip(), 200,
                                      **kwargs)
        assert a.report.to_dict() == b.report.to_dict()
        assert a.summary == b.summary

    @pytest.mark.multicore
    def test_parallel_grows_in_rounds(self):
        # an unreachable target: rounds grow the prefix to the whole plan
        outcome = run_adaptive_pvf_campaign(
            MixedApp(), SingleBitFlip(), 80,
            AdaptiveConfig(target_ci=0.002, min_per_cell=20), seed=2,
            batch_size=20, n_jobs=2)
        assert outcome.report.n_injections == 80
        assert outcome.rounds >= 2


class TestWatchdog:
    """A hung injected run ends at the ``SassOps`` instruction watchdog,
    after the same simulated work on any thread and worker count."""

    def test_a_runaway_injection_is_a_watchdog_due(self):
        injector = SoftwareInjector(RunawayApp())
        rng = make_rng(0)
        results = [injector.inject_one(SingleBitFlip(), rng)
                   for _ in range(40)]
        dues = [r.detail for r in results if r.outcome is Outcome.DUE]
        assert dues
        # golden: 11 injectable instructions, so the bound is the floor
        assert set(dues) == {
            "AppHangError: watchdog expired after 2001 dynamic "
            "instructions"}

    def test_the_campaign_serialises_identically_on_a_thread(self):
        main = _runaway_campaign()
        assert main["n_due"] > 0
        assert _on_a_thread(_runaway_campaign) == main

    @pytest.mark.multicore
    def test_the_campaign_serialises_identically_on_two_workers(self):
        assert _runaway_campaign(n_jobs=2) == _runaway_campaign()


class TestOpcodeAttribution:
    """Regression: a span crossing an op boundary must keep the first
    (targeted) opcode, and report every corrupted opcode."""

    def _run_span(self, target, span):
        def corruptor(opcode, golden, operands, is_float):
            return golden + 1
        ops = SassOps(target=target, corruptor=corruptor, span=span)
        ops.fadd(np.zeros(4, dtype=np.float32), np.float32(0.0))
        ops.imul(np.ones(4, dtype=np.int32), 1)
        return ops

    def test_span_crossing_attributed_to_first_opcode(self):
        ops = self._run_span(target=3, span=2)
        assert ops.injected is Opcode.FADD  # was IMUL before the fix
        assert ops.corrupted_opcodes == [Opcode.FADD, Opcode.IMUL]
        assert ops.n_corrupted == 2

    def test_span_within_one_op(self):
        ops = self._run_span(target=1, span=2)
        assert ops.injected is Opcode.FADD
        assert ops.corrupted_opcodes == [Opcode.FADD]

    def test_result_exposes_corrupted_opcodes(self):
        class WideSpanModel(SingleBitFlip):
            def sample_span(self, rng):
                return 8

        injector = SoftwareInjector(MixedApp())
        result = injector.inject_one(WideSpanModel(), make_rng(4))
        assert result.opcode is result.corrupted_opcodes[0]
        assert all(isinstance(op, Opcode)
                   for op in result.corrupted_opcodes)


class TestModuleWeightedStateless:
    def test_corrupt_leaves_module_untouched(self, small_database):
        model = ModuleWeightedSyndrome(small_database)
        assert model.module is None
        rng = make_rng(0)
        for _ in range(10):
            model.corrupt(Opcode.FADD, 1.5, (1.0, 0.5), True, rng)
            assert model.module is None

    def test_deterministic_per_seed(self, small_database):
        model = ModuleWeightedSyndrome(small_database)
        a = [model.corrupt(Opcode.FADD, 1.5, (1.0, 0.5), True, make_rng(3))
             for _ in range(5)]
        b = [model.corrupt(Opcode.FADD, 1.5, (1.0, 0.5), True, make_rng(3))
             for _ in range(5)]
        assert a == b


class TestProfileFromGoldenRun:
    def test_single_execution_for_golden_and_profile(self):
        app = CountingApp()
        injector = SoftwareInjector(app)
        injector.run_golden()
        profile = injector.run_profile()
        total = injector.injectable_total
        assert app.runs == 1  # was 2 before the fix
        assert profile[Opcode.FADD] == 16
        assert total == 48

    def test_profile_first_also_runs_once(self):
        app = CountingApp()
        injector = SoftwareInjector(app)
        injector.run_profile()
        injector.run_golden()
        assert app.runs == 1
