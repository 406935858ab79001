"""Campaign telemetry: collection, schema, discovery, rendering."""

import json

import pytest

from repro.campaign import (
    CampaignMetrics,
    UnitRecord,
    discover_metrics,
    load_metrics,
    metrics_path_for,
    render_stats,
    validate_metrics,
)
from repro.campaign.telemetry import (
    PIPELINE_KIND,
    SCHEMA_KIND,
    SCHEMA_VERSION,
    emit_metrics,
    resolve_metrics,
)
from repro.errors import CampaignError


class FakeReport:
    """Duck-typed report carrying the sniffed outcome attributes."""

    def __init__(self, masked=0, sdc=0, due=0):
        self.n_masked = masked
        self.n_sdc = sdc
        self.n_due = due
        self.n_injections = masked + sdc + due


class TestCollection:
    def test_record_unit_sniffs_report(self):
        metrics = CampaignMetrics("stage")
        record = metrics.record_unit(
            0, "FADD/M/fp32 [0]", size=50,
            report=FakeReport(masked=40, sdc=8, due=2),
            seconds=1.5, queue_wait=0.2, worker=123)
        assert record.outcomes == {"masked": 40, "sdc": 8, "due": 2}
        assert record.injections == 50
        assert record.worker == 123
        assert record.cell == "FADD/M/fp32"
        assert metrics.outcome_totals() == {"masked": 40, "sdc": 8,
                                            "due": 2}
        assert metrics.injections_total() == 50

    def test_outcome_totals_match_a_full_recount(self):
        # the totals fold only the units added since the last call, so
        # however the list grows or is replaced they must still equal a
        # fresh sum, keys in first-seen order
        def recount(units):
            totals = {}
            for unit in units:
                for key, value in unit.outcomes.items():
                    totals[key] = totals.get(key, 0) + value
            return list(totals.items())

        def check(metrics):
            assert list(metrics.outcome_totals().items()) == \
                recount(metrics.units)

        metrics = CampaignMetrics("stage")
        check(metrics)
        metrics.record_unit(0, report=FakeReport(sdc=1))
        check(metrics)
        metrics.record_unit(1, report=FakeReport(masked=3, due=1))
        check(metrics)
        # direct appends, as the service's shard metrics rebuild does
        metrics.units.append(UnitRecord(index=2, outcomes={"due": 2}))
        metrics.units.append(UnitRecord(index=3, outcomes={"sdc": 4}))
        check(metrics)
        metrics.outcome_totals()["sdc"] = -1  # callers get a copy
        check(metrics)
        # a new list, as from_dict assigns, then a shorter same list
        metrics.units = [UnitRecord(index=0, outcomes={"due": 1}),
                         UnitRecord(index=1, outcomes={"masked": 2})]
        check(metrics)
        del metrics.units[1:]
        check(metrics)
        metrics.units.append(UnitRecord(index=1, outcomes={"sdc": 1}))
        check(metrics)
        clone = CampaignMetrics.from_dict(metrics.to_dict())
        check(clone)

    def test_cached_vs_run_counts(self):
        metrics = CampaignMetrics("stage", total_units=3)
        metrics.record_unit(0, cached=True)
        metrics.record_unit(1, cached=False)
        metrics.record_unit(2, cached=True)
        assert metrics.units_done == 3
        assert metrics.units_cached == 2
        assert metrics.units_run == 1

    def test_heartbeat_mentions_rate_eta_and_tally(self):
        metrics = CampaignMetrics("stage", total_units=4)
        metrics.record_unit(0, report=FakeReport(masked=3, sdc=1))
        beat = metrics.heartbeat()
        assert "units/s" in beat
        assert "eta" in beat
        assert "M/S/D 3/1/0" in beat

    def test_finish_restamps_for_multi_round_reuse(self):
        metrics = CampaignMetrics("stage")
        metrics.record_unit(0)
        metrics.finish()
        first = metrics.wall_seconds()
        metrics.record_unit(1)  # a new round re-opens the wall-clock
        metrics.finish()
        assert metrics.wall_seconds() >= first

    def test_negative_timings_clamped(self):
        metrics = CampaignMetrics("stage")
        record = metrics.record_unit(0, seconds=-0.5, queue_wait=-0.1)
        assert record.seconds == 0.0
        assert record.queue_wait == 0.0


class TestSchema:
    def _payload(self):
        metrics = CampaignMetrics("stage", total_units=2,
                                  meta={"app": "MxM"})
        metrics.record_unit(0, "cell [0]", size=10,
                            report=FakeReport(masked=9, sdc=1),
                            seconds=0.5)
        metrics.record_unit(1, "cell [1]", size=10, cached=True)
        metrics.finish()
        return metrics.to_dict()

    def test_round_trip(self):
        payload = self._payload()
        clone = CampaignMetrics.from_dict(
            json.loads(json.dumps(payload)))
        assert clone.to_dict() == payload

    def test_validate_accepts_own_output(self):
        payload = self._payload()
        assert validate_metrics(payload) is payload

    def test_validate_tolerates_extra_keys(self):
        payload = self._payload()
        payload["bench"] = {"speedup": 3.0}
        validate_metrics(payload)

    def test_validate_rejects_wrong_kind(self):
        payload = self._payload()
        payload["kind"] = "something-else"
        with pytest.raises(CampaignError, match="kind"):
            validate_metrics(payload)

    def test_validate_rejects_wrong_version(self):
        payload = self._payload()
        payload["version"] = SCHEMA_VERSION + 1
        with pytest.raises(CampaignError, match="version"):
            validate_metrics(payload)

    def test_validate_rejects_missing_field(self):
        payload = self._payload()
        del payload["units_done"]
        with pytest.raises(CampaignError, match="units_done"):
            validate_metrics(payload)

    def test_validate_rejects_bool_masquerading_as_int(self):
        payload = self._payload()
        payload["units_done"] = True
        with pytest.raises(CampaignError, match="units_done"):
            validate_metrics(payload)

    def test_validate_rejects_bad_unit(self):
        payload = self._payload()
        del payload["units"][0]["seconds"]
        with pytest.raises(CampaignError, match="seconds"):
            validate_metrics(payload)

    def test_unit_record_round_trip(self):
        record = UnitRecord(index=3, label="cell [3]", size=5,
                            seconds=1.25, queue_wait=0.5, cached=True,
                            worker=99, timeouts=1,
                            outcomes={"masked": 4, "due": 1},
                            injections=5)
        assert UnitRecord.from_dict(record.to_dict()) == record


class TestFilesAndDiscovery:
    def test_metrics_path_for(self):
        assert metrics_path_for("runs/rtl_grid.jsonl").name == \
            "rtl_grid.metrics.json"
        assert metrics_path_for("runs/pvf.json").name == \
            "pvf.metrics.json"

    def test_save_and_load(self, tmp_path):
        metrics = CampaignMetrics("stage")
        metrics.record_unit(0, report=FakeReport(masked=1))
        path = metrics.save(tmp_path / "m.json")
        loaded = load_metrics(path)
        assert loaded["stage"] == "stage"
        assert loaded["outcomes"] == {"masked": 1, "sdc": 0, "due": 0}

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            load_metrics(path)
        with pytest.raises(CampaignError):
            load_metrics(tmp_path / "missing.json")

    def test_resolve_metrics_creates_one_for_the_stage(self):
        created = resolve_metrics(None, "s")
        assert isinstance(created, CampaignMetrics)
        assert created.stage == "s"
        existing = CampaignMetrics("mine")
        assert resolve_metrics(existing, "s") is existing

    def test_emit_metrics_writes_next_to_journal(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        metrics = CampaignMetrics("stage")
        emit_metrics(metrics, journal)
        assert (tmp_path / "c.metrics.json").exists()
        emit_metrics(None, journal)  # opt-out stays silent

    def test_a_cancelled_checkpointed_run_keeps_its_metrics(self, tmp_path):
        from repro.apps import make_application
        from repro.errors import CampaignCancelled
        from repro.swfi import SingleBitFlip, run_pvf_campaign

        polls = []

        def cancel_after_two_units():
            polls.append(None)
            return len(polls) > 2

        journal = tmp_path / "pvf.jsonl"
        with pytest.raises(CampaignCancelled):
            run_pvf_campaign(make_application("MxM", seed=1),
                             SingleBitFlip(), 8, seed=1, batch_size=2,
                             checkpoint=journal,
                             cancel=cancel_after_two_units)
        assert len(journal.read_text().splitlines()) == 3  # header + 2
        saved = metrics_path_for(journal).read_bytes()
        assert json.loads(saved)["units_done"] == 2
        assert json.loads(saved)["total_units"] == 4
        # another campaign's resume is refused before it could overwrite
        with pytest.raises(CampaignError, match="different campaign"):
            run_pvf_campaign(make_application("MxM", seed=1),
                             SingleBitFlip(), 6, seed=1, batch_size=2,
                             checkpoint=journal, resume=True)
        assert metrics_path_for(journal).read_bytes() == saved

    def test_discover_workdir_prefers_combined(self, tmp_path):
        stage = CampaignMetrics("solo")
        stage.save(tmp_path / "solo.metrics.json")
        assert [p["stage"] for p in discover_metrics(tmp_path)] == ["solo"]
        combined = {"kind": PIPELINE_KIND, "version": SCHEMA_VERSION,
                    "stages": [CampaignMetrics("a").to_dict(),
                               CampaignMetrics("b").to_dict()]}
        (tmp_path / "metrics.json").write_text(json.dumps(combined))
        assert [p["stage"] for p in discover_metrics(tmp_path)] == \
            ["a", "b"]

    def test_discover_journal_uses_sibling(self, tmp_path):
        journal = tmp_path / "c.jsonl"
        journal.write_text("")
        CampaignMetrics("stage").save(metrics_path_for(journal))
        assert [p["stage"] for p in discover_metrics(journal)] == ["stage"]

    def test_discover_empty_dir_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no metrics"):
            discover_metrics(tmp_path)
        with pytest.raises(CampaignError):
            discover_metrics(tmp_path / "nope")


class TestRendering:
    def test_stage_table_and_per_cell_breakdown(self):
        metrics = CampaignMetrics("rtl-grid", total_units=4)
        for i, cell in enumerate(["FADD/M/fp32", "FADD/M/fp32",
                                  "IADD/M/int", "IADD/M/int"]):
            metrics.record_unit(i, f"{cell} [{i % 2}]", size=10,
                                report=FakeReport(masked=8, sdc=2),
                                seconds=0.5)
        text = render_stats([metrics.to_dict()])
        assert "rtl-grid" in text
        assert "units/s" in text
        assert "per-cell throughput" in text
        assert "FADD/M/fp32" in text and "IADD/M/int" in text

    def test_per_cell_can_be_disabled(self):
        metrics = CampaignMetrics("stage")
        metrics.record_unit(0, "a [0]")
        metrics.record_unit(1, "b [0]")
        text = render_stats([metrics.to_dict()], per_cell=False)
        assert "per-cell" not in text

    def test_schema_kind_constant_round_trips(self):
        assert CampaignMetrics("s").to_dict()["kind"] == SCHEMA_KIND
