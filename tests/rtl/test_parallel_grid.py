"""Parallel / checkpointed campaign-grid tests.

Mirrors the SWFI suite's invariant on the RTL side: cell and fault-batch
randomness depend only on the unit index (child seed of the campaign
seed), so a grid's reports are bit-identical whether its units ran
serially, across worker processes, or split over a checkpoint/resume
boundary.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CampaignError
from repro.gpu import Opcode
from repro.rtl import (
    RTLInjector,
    run_campaign,
    run_grid,
    run_signature_campaign,
    run_tmxm_grid,
)
from repro.rtl.classify import Outcome
from repro.rtl.microbench import make_microbenchmark

GRID = dict(opcodes=[Opcode.FADD, Opcode.IADD], input_ranges=["M"],
            modules=["scheduler"], n_faults=60, seed=6)


class TestParallelGrid:
    def test_matches_serial(self):
        kwargs = dict(opcodes=[Opcode.IADD], input_ranges=["M"],
                      modules=["int"], n_faults=80, seed=6)
        serial = run_grid(**kwargs)
        parallel = run_grid(n_jobs=2, **kwargs)
        assert len(serial) == len(parallel) == 1
        assert serial[0].n_sdc == parallel[0].n_sdc
        assert serial[0].n_due == parallel[0].n_due
        assert [r.outcome for r in serial[0].general] == \
            [r.outcome for r in parallel[0].general]

    def test_shared_injector_rejected_with_workers(self):
        with pytest.raises(CampaignError):
            run_grid(opcodes=[Opcode.IADD], input_ranges=["M"],
                     n_faults=10, n_jobs=2, injector=RTLInjector())

    def test_invalid_job_count(self):
        with pytest.raises(CampaignError):
            run_grid(opcodes=[Opcode.IADD], n_faults=10, n_jobs=0)


class TestBatchSharding:
    def test_batched_parallel_bit_identical(self):
        """Intra-cell fault batches merge back to the serial report."""
        serial = run_grid(batch_size=20, **GRID)
        parallel = run_grid(batch_size=20, n_jobs=2, **GRID)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in parallel]

    def test_unbatched_default_matches_historical_campaign(self, injector):
        """batch_size=None keeps the exact PR-1 fault streams."""
        reports = run_grid(opcodes=[Opcode.FADD], input_ranges=["M"],
                           modules=["fp32"], n_faults=40, seed=3,
                           injector=injector)
        from repro.rng import spawn_seeds

        cell_seed = spawn_seeds(3, 1)[0]
        bench = make_microbenchmark(Opcode.FADD, "M", seed=cell_seed)
        single = run_campaign(bench, "fp32", 40, seed=cell_seed,
                              injector=injector)
        assert reports[0].to_dict() == single.to_dict()

    def test_single_campaign_batched_matches_unbatched_total(self,
                                                             injector):
        bench = make_microbenchmark(Opcode.IADD, "M", seed=1)
        report = run_campaign(bench, "int", 50, seed=1, injector=injector,
                              batch_size=20)
        assert report.n_injections == 50
        assert report.n_sdc + report.n_due + report.n_masked == 50


class TestCheckpointResume:
    def test_truncated_journal_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        full = run_grid(batch_size=20, checkpoint=path, **GRID)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 3 batches per cell
        # kill after the first two batches, then resume
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_grid(batch_size=20, checkpoint=path, resume=True,
                           **GRID)
        assert [r.to_dict() for r in resumed] == \
            [r.to_dict() for r in full]

    @pytest.mark.multicore
    def test_parallel_resume_bit_identical(self, tmp_path):
        """The acceptance bar: kill -> resume with n_jobs=4 == serial."""
        path = tmp_path / "grid.jsonl"
        serial = run_grid(batch_size=20, **GRID)
        run_grid(batch_size=20, checkpoint=path, **GRID)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        resumed = run_grid(batch_size=20, checkpoint=path, resume=True,
                           n_jobs=4, **GRID)
        assert [r.to_dict() for r in resumed] == \
            [r.to_dict() for r in serial]

    def test_corrupt_trailing_line_warns_and_reruns(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        full = run_grid(batch_size=20, checkpoint=path, **GRID)
        text = path.read_text()
        path.write_text(text[:len(text) - 30])  # torn final write
        with pytest.warns(UserWarning, match="corrupt checkpoint line"):
            resumed = run_grid(batch_size=20, checkpoint=path,
                               resume=True, **GRID)
        assert [r.to_dict() for r in resumed] == \
            [r.to_dict() for r in full]

    def test_resume_rejects_different_grid(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_grid(batch_size=20, checkpoint=path, **GRID)
        other = dict(GRID, seed=7)
        with pytest.raises(CampaignError):
            run_grid(batch_size=20, checkpoint=path, resume=True, **other)

    def test_resume_requires_path(self):
        with pytest.raises(CampaignError):
            run_grid(resume=True, **GRID)


class TestTmxmGrid:
    def test_runs_all_cells(self, injector):
        reports = run_tmxm_grid(tile_kinds=["Random"], n_faults=30,
                                seed=2, injector=injector)
        assert [(r.input_range, r.module) for r in reports] == \
            [("Random", "scheduler"), ("Random", "pipeline")]

    def test_checkpoint_roundtrip(self, tmp_path, injector):
        path = tmp_path / "tmxm.jsonl"
        kwargs = dict(tile_kinds=["Random"], n_faults=30, seed=2,
                      batch_size=10)
        full = run_tmxm_grid(checkpoint=path, injector=injector, **kwargs)
        resumed = run_tmxm_grid(checkpoint=path, resume=True,
                                injector=injector, **kwargs)
        assert [r.to_dict() for r in resumed] == \
            [r.to_dict() for r in full]

    def test_rejects_unknown_tile(self):
        with pytest.raises(CampaignError):
            run_tmxm_grid(tile_kinds=["Diagonal"], n_faults=10)


#: Campaigns holding a stuck-at scheduler fault that loops the kernel
#: until the SM's cycle watchdog ends it (each well under a second).
HANGING = {
    "cell": lambda: run_campaign(
        make_microbenchmark(Opcode.IADD, "M"), "scheduler", 20, seed=5,
        fault_model="stuck-at"),
    "cell-reference-loop": lambda: run_campaign(
        make_microbenchmark(Opcode.IADD, "M"), "scheduler", 20, seed=5,
        fault_model="stuck-at", vectorize=False),
    "signature": lambda: run_signature_campaign(
        "scheduler", 8, seed=29, apps=["IADD/M"]),
}


def _due_reasons(report):
    rows = report.general if hasattr(report, "general") else report.records
    return [r.due_reason for r in rows if r.outcome is Outcome.DUE]


class TestWatchdog:
    """The cycle watchdog is the RTL level's one hang guard: it counts
    simulated cycles, so a hang ends identically on any thread."""

    @pytest.mark.parametrize("campaign", sorted(HANGING))
    def test_a_hang_ends_at_the_watchdog_on_any_thread(self, campaign):
        run = HANGING[campaign]
        on_main = run()
        assert threading.current_thread() is threading.main_thread()
        with ThreadPoolExecutor(max_workers=1) as pool:
            on_thread = pool.submit(run).result()
        assert any(reason.startswith("GpuHangError: watchdog expired after ")
                   for reason in _due_reasons(on_main))
        assert json.dumps(on_thread.to_dict()) == \
            json.dumps(on_main.to_dict())
