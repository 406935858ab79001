"""Permanent-fault signature campaigns: planning, merging, artifacts."""

import json

import pytest

from repro.artifacts import dump_artifact, load_artifact
from repro.campaign import CampaignMetrics
from repro.errors import CampaignError
from repro.outcomes import Outcome
from repro.rtl import (
    RTLInjector,
    default_signature_apps,
    run_signature_campaign,
)
from repro.rtl.signatures import SignatureReport


@pytest.fixture(scope="module")
def injector():
    return RTLInjector()


@pytest.fixture(scope="module")
def report(injector):
    return run_signature_campaign("sfu_controller", 4, seed=3,
                                  injector=injector)


class TestDefaultApps:
    def test_functional_modules_use_their_opcodes(self):
        apps = default_signature_apps("sfu_controller")
        assert apps and all("/" in app for app in apps)
        assert all(not app.startswith("tmxm/") for app in apps)

    def test_structural_modules_use_tmxm_tiles(self):
        apps = default_signature_apps("scheduler")
        assert apps and all(app.startswith("tmxm/") for app in apps)

    def test_unknown_module_rejected(self):
        with pytest.raises(CampaignError):
            default_signature_apps("dram")


class TestSignatureCampaign:
    def test_one_record_per_fault_app_pair(self, report):
        assert report.n_faults == 4
        assert report.n_records == 4 * len(report.apps)
        assert report.fault_model == "stuck-at"
        for record in report.records:
            assert record.app in report.apps
            assert record.fault["model"] == "stuck-at"

    def test_fault_major_unit_order(self, report):
        pairs = [(r.fault_index, report.apps.index(r.app))
                 for r in report.records]
        assert pairs == sorted(pairs)

    def test_error_signature_covers_suite(self, report):
        signature = report.error_signature(0)
        assert set(signature) == set(report.apps)
        for entry in signature.values():
            assert entry["outcome"] in {o.value for o in Outcome}

    def test_distinct_signatures_total_faults(self, report):
        assert sum(report.distinct_signatures().values()) == 4

    def test_per_app_summary_totals(self, report):
        for app, row in report.per_app_summary().items():
            assert row["n_faults"] == 4
            assert row["masked"] + row["sdc"] + row["due"] == 4

    def test_deterministic_rerun(self, injector, report):
        again = run_signature_campaign("sfu_controller", 4, seed=3,
                                       injector=injector)
        assert again.to_dict() == report.to_dict()

    def test_parallel_merge_bit_identical(self, injector, report):
        parallel = run_signature_campaign("sfu_controller", 4, seed=3,
                                          n_jobs=2)
        assert parallel.to_dict() == report.to_dict()

    def test_explicit_app_suite(self, injector):
        report = run_signature_campaign(
            "sfu_controller", 2, seed=0, apps=["FSIN/S", "FSIN/L"],
            injector=injector)
        assert report.apps == ["FSIN/S", "FSIN/L"]
        assert report.n_records == 4

    def test_transient_model_rejected(self, injector):
        with pytest.raises(CampaignError, match="permanent"):
            run_signature_campaign("sfu_controller", 2,
                                   fault_model="transient",
                                   injector=injector)

    def test_bad_app_spec_rejected(self, injector):
        with pytest.raises(CampaignError):
            run_signature_campaign("sfu_controller", 2,
                                   apps=["NOPCODE/M"], injector=injector)

    def test_app_from_foreign_module_rejected(self, injector):
        # FADD exercises fp32, not the sfu controller: the campaign
        # refuses a suite that cannot observe the faulted module
        with pytest.raises(CampaignError):
            run_signature_campaign("sfu_controller", 2, apps=["FADD/M"],
                                   injector=injector)

    def test_telemetry_counts_every_record(self):
        # one injection per (fault, app) record: the unit rows must add
        # up to the merged report's records and outcomes
        metrics = CampaignMetrics("rtl-signature")
        report = run_signature_campaign("fp32", 4, seed=1, metrics=metrics)
        assert report.n_records == 12
        assert metrics.injections_total() == 12
        assert metrics.outcome_totals() == {"masked": report.n_masked,
                                            "sdc": report.n_sdc,
                                            "due": report.n_due}

    def test_checkpoint_resume_bit_identical(self, injector, report,
                                             tmp_path):
        journal = tmp_path / "signature.jsonl"
        first = run_signature_campaign("sfu_controller", 4, seed=3,
                                       injector=injector,
                                       checkpoint=journal)
        assert journal.exists()
        resumed = run_signature_campaign("sfu_controller", 4, seed=3,
                                         injector=injector,
                                         checkpoint=journal, resume=True)
        assert first.to_dict() == resumed.to_dict() == report.to_dict()


class TestSignatureSerde:
    def test_artifact_roundtrip(self, report):
        payload = json.loads(json.dumps(
            dump_artifact("signature-report", report)))
        clone = load_artifact("signature-report", payload)
        assert isinstance(clone, SignatureReport)
        assert clone.to_dict() == report.to_dict()

    def test_merge_validates_provenance(self, report):
        other = SignatureReport(module="fp32", fault_model="stuck-at",
                                n_faults=4, apps=list(report.apps),
                                seed=3)
        with pytest.raises(ValueError):
            SignatureReport.merge([report, other])

    def test_patterns_mine_signature_reports(self, report):
        from repro.analytics import mine_patterns

        mined = mine_patterns(report)
        assert mined.source == "signature"
        assert mined.cell == {"module": report.module,
                              "fault_model": "stuck-at"}
        assert len(mined.signatures) == len(report.apps)
        histogram = mined.spatial["signature_histogram"]
        assert sum(row["faults"] for row in histogram) == report.n_faults
