"""Level-agnostic campaign engine: planning, execution, merge order."""

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

import pytest

from repro.campaign import (
    DEFAULT_BATCH_SIZE,
    CampaignCheckpoint,
    Mergeable,
    WorkUnit,
    merge_ordered,
    plan_batches,
    plan_units,
    run_units,
)
from repro.errors import CampaignError
from repro.rng import spawn_seed_range


@dataclass
class TallyReport:
    """Minimal Mergeable: remembers which (seed, size) pairs it saw."""

    seen: List[List[int]] = field(default_factory=list)

    def merge_in(self, other):
        self.seen.extend(other.seen)

    @classmethod
    def merge(cls, reports):
        merged = cls()
        for report in reports:
            merged.merge_in(report)
        return merged

    def to_dict(self):
        return {"seen": [list(pair) for pair in self.seen]}

    @classmethod
    def from_dict(cls, payload):
        return cls(seen=[list(pair) for pair in payload["seen"]])


def run_tally(state, unit):
    return TallyReport(seen=[[unit.seed, unit.size]])


def make_state():
    return "state"


class TestPlanning:
    def test_plan_batches_default_size(self):
        assert plan_batches(120) == [50, 50, 20]
        assert plan_batches(120, 50) == [50, 50, 20]
        assert plan_batches(0) == []

    def test_plan_batches_rejects_bad_sizes(self):
        with pytest.raises(CampaignError):
            plan_batches(10, 0)
        with pytest.raises(CampaignError):
            plan_batches(-1)

    def test_plan_units_sizes_and_seeds(self):
        units = plan_units(120, seed=9, batch_size=50)
        assert [u.size for u in units] == [50, 50, 20]
        assert [u.index for u in units] == [0, 1, 2]
        assert [u.seed for u in units] == spawn_seed_range(9, 0, 3)

    def test_plan_units_base_index_offsets_indices_and_seeds(self):
        units = plan_units(60, seed=9, batch_size=30, base_index=5)
        assert [u.index for u in units] == [5, 6]
        # unit base_index + i draws from child base_index + i of *seed*,
        # so contiguous re-planning (adaptive growth) stays on the same
        # random streams
        assert [u.seed for u in units] == spawn_seed_range(9, 5, 2)

    def test_plan_units_carries_spec_and_label(self):
        units = plan_units(60, seed=1, batch_size=40, spec="cell",
                           label="fp32")
        assert all(u.spec == "cell" for u in units)
        assert units[0].label.startswith("fp32")

    def test_default_batch_size_constant(self):
        assert DEFAULT_BATCH_SIZE == 50


class TestMerge:
    def test_merge_ordered_sorts_by_index(self):
        results = {2: TallyReport(seen=[[2, 0]]),
                   0: TallyReport(seen=[[0, 0]]),
                   1: TallyReport(seen=[[1, 0]])}
        merged = merge_ordered(results)
        assert [pair[0] for pair in merged.seen] == [0, 1, 2]

    def test_merge_ordered_rejects_empty(self):
        with pytest.raises(CampaignError):
            merge_ordered({})

    def test_tally_satisfies_protocol(self):
        assert isinstance(TallyReport(), Mergeable)


class TestRunUnitsSerial:
    def test_runs_every_unit(self):
        units = plan_units(100, seed=4, batch_size=40)
        results = run_units(units, run_tally)
        assert sorted(results) == [0, 1, 2]
        merged = merge_ordered(results)
        assert [pair[1] for pair in merged.seen] == [40, 40, 20]

    def test_state_factory_called_lazily(self):
        calls = []

        def factory():
            calls.append(1)
            return "state"

        run_units([], run_tally, state_factory=factory)
        assert calls == []  # nothing to do -> no state built
        run_units(plan_units(10, 0, 10), run_tally, state_factory=factory)
        assert calls == [1]

    def test_consume_receives_index_order(self):
        units = plan_units(90, seed=2, batch_size=30)
        order = []
        run_units(units, run_tally,
                  consume=lambda index, report: order.append(index))
        assert order == [0, 1, 2]

    def test_collect_false_returns_empty(self):
        units = plan_units(60, seed=2, batch_size=30)
        seen = []
        results = run_units(units, run_tally, collect=False,
                            consume=lambda i, r: seen.append(i))
        assert results == {}
        assert seen == [0, 1]

    def test_rejects_bad_job_count(self):
        with pytest.raises(CampaignError):
            run_units([], run_tally, n_jobs=0)


class TestRunUnitsParallel:
    @pytest.mark.multicore
    def test_matches_serial(self):
        units = plan_units(200, seed=11, batch_size=25)
        serial = run_units(units, run_tally)
        parallel = run_units(units, run_tally, n_jobs=3,
                             state_factory=make_state)
        assert merge_ordered(serial).to_dict() == \
            merge_ordered(parallel).to_dict()

    @pytest.mark.multicore
    def test_consume_order_is_deterministic(self):
        units = plan_units(200, seed=11, batch_size=25)
        order = []
        run_units(units, run_tally, n_jobs=4, state_factory=make_state,
                  consume=lambda index, report: order.append(index),
                  collect=False)
        assert order == [u.index for u in units]


class TestCheckpointedRun:
    def test_replayed_units_are_not_rerun(self, tmp_path):
        units = plan_units(100, seed=8, batch_size=25)
        header = {"campaign": "tally", "seed": 8}
        path = tmp_path / "units.jsonl"
        first = run_units(
            units, run_tally,
            checkpoint=CampaignCheckpoint(path, header,
                                          decode=TallyReport.from_dict))
        # drop the last journal line, then resume
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        executed = []

        def counting_run(state, unit):
            executed.append(unit.index)
            return run_tally(state, unit)

        resumed = run_units(
            units, counting_run,
            checkpoint=CampaignCheckpoint(path, header, resume=True,
                                          decode=TallyReport.from_dict))
        assert executed == [3]
        assert merge_ordered(resumed).to_dict() == \
            merge_ordered(first).to_dict()

    def test_consume_includes_replayed_units(self, tmp_path):
        units = plan_units(60, seed=8, batch_size=30)
        header = {"campaign": "tally"}
        path = tmp_path / "units.jsonl"
        run_units(units, run_tally,
                  checkpoint=CampaignCheckpoint(
                      path, header, decode=TallyReport.from_dict))
        order = []
        run_units(units, run_tally,
                  checkpoint=CampaignCheckpoint(
                      path, header, resume=True,
                      decode=TallyReport.from_dict),
                  consume=lambda index, report: order.append(index))
        assert order == [0, 1]  # fully cached, still streamed in order


class TestMetricsThreading:
    def test_serial_run_records_every_unit(self):
        from repro.campaign import CampaignMetrics

        units = plan_units(100, seed=4, batch_size=40)
        metrics = CampaignMetrics("tally")
        run_units(units, run_tally, metrics=metrics)
        assert metrics.total_units == 3
        assert metrics.units_done == 3
        assert metrics.units_run == 3
        assert all(u.seconds >= 0 for u in metrics.units)
        assert all(u.worker > 0 for u in metrics.units)
        assert metrics.wall_seconds() > 0

    def test_replayed_units_marked_cached(self, tmp_path):
        from repro.campaign import CampaignMetrics

        units = plan_units(60, seed=8, batch_size=30)
        header = {"campaign": "tally"}
        path = tmp_path / "units.jsonl"
        run_units(units, run_tally,
                  checkpoint=CampaignCheckpoint(
                      path, header, decode=TallyReport.from_dict))
        metrics = CampaignMetrics("tally")
        run_units(units, run_tally, metrics=metrics,
                  checkpoint=CampaignCheckpoint(
                      path, header, resume=True,
                      decode=TallyReport.from_dict))
        assert metrics.units_done == 2
        assert metrics.units_cached == 2
        assert metrics.units_run == 0

    @pytest.mark.multicore
    def test_parallel_metrics_and_identical_reports(self):
        from repro.campaign import CampaignMetrics

        units = plan_units(200, seed=11, batch_size=25)
        serial = run_units(units, run_tally)
        metrics = CampaignMetrics("tally")
        parallel = run_units(units, run_tally, n_jobs=3,
                             state_factory=make_state, metrics=metrics)
        # telemetry observes, never perturbs: reports stay bit-identical
        assert merge_ordered(serial).to_dict() == \
            merge_ordered(parallel).to_dict()
        assert metrics.units_done == len(units)
        workers = {u.worker for u in metrics.units}
        assert workers and all(w > 0 for w in workers)
        assert all(u.queue_wait >= 0 for u in metrics.units)


def raise_interrupt(state, unit):
    raise KeyboardInterrupt


class TestCancellation:
    def test_serial_cancel_before_first_unit(self):
        from repro.errors import CampaignCancelled

        units = plan_units(40, seed=1, batch_size=10)
        with pytest.raises(CampaignCancelled, match="0/4 work units"):
            run_units(units, run_tally, cancel=lambda: True)

    def test_serial_cancel_keeps_journal_and_resumes(self, tmp_path):
        from repro.errors import CampaignCancelled

        units = plan_units(40, seed=1, batch_size=10)
        header = {"campaign": "tally"}
        path = tmp_path / "units.jsonl"
        answers = iter([False, False, True])
        with pytest.raises(CampaignCancelled) as excinfo:
            run_units(units, run_tally,
                      checkpoint=CampaignCheckpoint(
                          path, header, decode=TallyReport.from_dict),
                      cancel=lambda: next(answers))
        assert "2/4" in str(excinfo.value)
        assert str(path) in str(excinfo.value)
        # the two completed units are journaled; a resume runs the rest
        executed = []

        def counting_run(state, unit):
            executed.append(unit.index)
            return run_tally(state, unit)

        resumed = run_units(
            units, counting_run,
            checkpoint=CampaignCheckpoint(path, header, resume=True,
                                          decode=TallyReport.from_dict))
        assert executed == [2, 3]
        assert merge_ordered(resumed).to_dict() == \
            merge_ordered(run_units(units, run_tally)).to_dict()

    @pytest.mark.multicore
    def test_parallel_cancel_stops_pool(self):
        from repro.errors import CampaignCancelled

        units = plan_units(200, seed=3, batch_size=10)
        start = time.perf_counter()
        with pytest.raises(CampaignCancelled):
            run_units(units, run_tally, n_jobs=2,
                      state_factory=make_state, cancel=lambda: True)
        assert time.perf_counter() - start < 30

    def test_keyboard_interrupt_mentions_resume(self, tmp_path):
        units = plan_units(20, seed=1, batch_size=10)
        path = tmp_path / "units.jsonl"
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_units(units, raise_interrupt,
                      checkpoint=CampaignCheckpoint(
                          path, {"campaign": "tally"},
                          decode=TallyReport.from_dict))
        assert "resume with --resume" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_keyboard_interrupt_without_checkpoint_is_bare(self):
        units = plan_units(20, seed=1, batch_size=10)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_units(units, raise_interrupt)
        assert "--resume" not in str(excinfo.value)
