"""Adaptive runners: determinism, the prefix property, and resume.

The contract under test is ISSUE 9's acceptance bar: an adaptive
campaign executes a **prefix of the fixed seed-indexed unit plan**, so
its merged report is bit-identical to a fixed-size campaign truncated
at the same unit horizon — across process counts, across the
vectorized/scalar RTL engines, and across a kill/resume cycle.
"""

import pytest

from repro.adaptive import (
    AdaptiveConfig,
    run_adaptive_campaign,
    run_adaptive_grid,
    run_adaptive_pvf_campaign,
)
from repro.apps import make_application
from repro.gpu import Opcode
from repro.rtl import make_microbenchmark, run_campaign
from repro.swfi.campaign import run_pvf_campaign
from repro.swfi.models import SingleBitFlip

#: converges at the warm-up horizon: any interval is narrower than 0.9
LOOSE = AdaptiveConfig(target_ci=0.9, min_per_cell=30)


class TestPVF:
    def test_early_stop_is_prefix_of_fixed_plan(self):
        outcome = run_adaptive_pvf_campaign(
            make_application("MxM", seed=5), SingleBitFlip(), 100,
            LOOSE, seed=5, batch_size=10)
        executed = outcome.report.n_injections
        assert executed == 30  # warm-up only: 3 of the 10 planned units
        assert outcome.converged and outcome.rounds == 1
        fixed = run_pvf_campaign(
            make_application("MxM", seed=5), SingleBitFlip(), executed,
            seed=5, batch_size=10)
        assert outcome.report.to_dict() == fixed.to_dict()

    def test_summary_reflects_the_stop_decision(self):
        outcome = run_adaptive_pvf_campaign(
            make_application("MxM", seed=5), SingleBitFlip(), 100,
            LOOSE, seed=5, batch_size=10)
        (entry,) = outcome.summary
        assert entry["cell"] == "MxM/single-bit-flip"
        assert entry["trials"] == 30
        assert entry["units"] == 3 and entry["plan_units"] == 10
        assert entry["converged"] and not entry["exhausted"]
        assert entry["ci_width"] <= LOOSE.target_ci

    @pytest.mark.multicore
    def test_parallel_run_is_bit_identical(self):
        kwargs = dict(seed=7, batch_size=5)
        serial = run_adaptive_pvf_campaign(
            make_application("MxM", seed=7), SingleBitFlip(), 60,
            LOOSE, n_jobs=1, **kwargs)
        parallel = run_adaptive_pvf_campaign(
            make_application("MxM", seed=7), SingleBitFlip(), 60,
            LOOSE, n_jobs=2, **kwargs)
        assert serial.report.to_dict() == parallel.report.to_dict()
        assert serial.summary == parallel.summary
        assert serial.rounds == parallel.rounds

    def test_resume_after_kill_reaches_same_stop_decision(self, tmp_path):
        config = AdaptiveConfig(target_ci=0.1, min_per_cell=20)
        kwargs = dict(seed=9, batch_size=5)
        journal = tmp_path / "full.jsonl"
        full = run_adaptive_pvf_campaign(
            make_application("MxM", seed=9), SingleBitFlip(), 200,
            config, checkpoint=journal, **kwargs)
        assert full.rounds >= 2  # the warm-up alone must not satisfy 0.1

        # simulate a SIGKILL mid-campaign: keep the journal header and
        # the first two completed units, drop everything after
        lines = journal.read_text().splitlines()
        assert len(lines) > 3
        killed = tmp_path / "killed.jsonl"
        killed.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_adaptive_pvf_campaign(
            make_application("MxM", seed=9), SingleBitFlip(), 200,
            config, checkpoint=killed, resume=True, **kwargs)

        assert resumed.report.to_dict() == full.report.to_dict()
        assert resumed.summary == full.summary
        assert resumed.rounds == full.rounds

    def test_resume_requires_checkpoint(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            run_adaptive_pvf_campaign(
                make_application("MxM", seed=1), SingleBitFlip(), 10,
                LOOSE, resume=True)


class TestRTL:
    def test_early_stop_is_prefix_of_fixed_plan(self):
        bench = make_microbenchmark(Opcode.FADD, "M", seed=3)
        outcome = run_adaptive_campaign(bench, "fp32", 100, LOOSE,
                                        seed=3, batch_size=10)
        executed = outcome.reports[0].n_injections
        assert executed == 30
        fixed = run_campaign(bench, "fp32", executed, seed=3,
                             batch_size=10)
        assert outcome.reports[0].to_dict() == fixed.to_dict()

    def test_vectorized_and_scalar_engines_agree(self):
        bench = make_microbenchmark(Opcode.FMUL, "S", seed=7)
        kwargs = dict(seed=7, batch_size=10)
        scalar = run_adaptive_campaign(bench, "fp32", 60, LOOSE,
                                       vectorize=False, **kwargs)
        vectorized = run_adaptive_campaign(bench, "fp32", 60, LOOSE,
                                           vectorize=True, **kwargs)
        assert scalar.reports[0].to_dict() == \
            vectorized.reports[0].to_dict()
        assert scalar.summary == vectorized.summary
        assert scalar.rounds == vectorized.rounds

    def test_resume_after_kill_reaches_same_stop_decision(self, tmp_path):
        bench = make_microbenchmark(Opcode.FADD, "S", seed=11)
        config = AdaptiveConfig(target_ci=0.9, min_per_cell=30)
        journal = tmp_path / "full.jsonl"
        full = run_adaptive_campaign(bench, "fp32", 100, config,
                                     seed=11, batch_size=10,
                                     checkpoint=journal)
        lines = journal.read_text().splitlines()
        killed = tmp_path / "killed.jsonl"
        killed.write_text("\n".join(lines[:2]) + "\n")  # header + 1 unit
        resumed = run_adaptive_campaign(bench, "fp32", 100, config,
                                        seed=11, batch_size=10,
                                        checkpoint=killed, resume=True)
        assert resumed.reports[0].to_dict() == full.reports[0].to_dict()
        assert resumed.summary == full.summary
        assert resumed.rounds == full.rounds


class TestGrid:
    def test_per_cell_early_stop_spends_less_than_the_fixed_plan(self):
        config = AdaptiveConfig(target_ci=0.5, min_per_cell=20)
        outcome = run_adaptive_grid(
            opcodes=[Opcode.FADD], input_ranges=("S", "M"),
            modules=["fp32"], n_faults=60, config=config, seed=1,
            batch_size=10)
        assert len(outcome.reports) == 2
        assert outcome.converged
        assert outcome.n_injections < 2 * 60  # strictly under the plan
        for entry in outcome.summary:
            assert entry["trials"] >= config.min_per_cell
            assert entry["ci_width"] <= config.target_ci
