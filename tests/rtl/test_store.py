"""Campaign-store persistence tests."""

import json

import pytest

from repro.errors import ReproError
from repro.rtl.store import CampaignStore


@pytest.fixture
def store(tmp_path, small_reports):
    store = CampaignStore(tmp_path / "campaigns")
    store.add_all(small_reports)
    return store


class TestStore:
    def test_roundtrip(self, store, small_reports):
        loaded = store.load(store.keys()[0])
        original = next(
            r for r in small_reports
            if CampaignStore._key_for(r) == store.keys()[0])
        assert loaded.n_injections == original.n_injections
        assert loaded.n_sdc == original.n_sdc
        assert len(loaded.detailed) == len(original.detailed)

    def test_index_summary(self, store, small_reports):
        summary = store.summary()
        assert len(summary) == len(store)
        assert all({"key", "instruction", "module", "n_sdc"}
                   <= set(entry) for entry in summary)

    def test_filtered_loading(self, store):
        fadds = list(store.load_all(instruction="FADD"))
        assert fadds and all(r.instruction == "FADD" for r in fadds)
        fp32 = list(store.load_all(module="fp32", input_range="M"))
        assert all(r.module == "fp32" and r.input_range == "M"
                   for r in fp32)

    def test_reopen_preserves_index(self, store):
        reopened = CampaignStore(store.root)
        assert reopened.keys() == store.keys()

    def test_overwrite_same_cell(self, store, small_reports):
        before = len(store)
        store.add(small_reports[0])  # same key again
        assert len(store) == before

    def test_missing_key(self, store):
        with pytest.raises(ReproError):
            store.load("nope")

    def test_corrupt_index_detected(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "index.json").write_text("{broken")
        with pytest.raises(ReproError):
            CampaignStore(root)

    def test_database_buildable_from_store(self, store):
        from repro.syndrome import build_database

        db = build_database(store.load_all())
        assert db.entries()


class TestAdaptiveCampaign:
    """Inject-until-tight PVF runs: the adaptive runner's job."""

    def test_stops_when_tight(self):
        import numpy as np

        from repro.adaptive import AdaptiveConfig, run_adaptive_pvf_campaign
        from repro.apps.base import GPUApplication
        from repro.swfi import SingleBitFlip

        class Tiny(GPUApplication):
            name = "tiny"

            def run(self, ops):
                return ops.fadd(np.arange(8, dtype=np.float32), 1.0)

        outcome = run_adaptive_pvf_campaign(
            Tiny(), SingleBitFlip(), 2000,
            AdaptiveConfig(target_ci=0.16, min_per_cell=50), seed=0,
            batch_size=50)
        (cell,) = outcome.summary
        assert outcome.converged and cell["ci_width"] <= 0.16
        assert outcome.report.n_injections <= 2000

    def test_validation(self):
        from repro.adaptive import AdaptiveConfig
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            AdaptiveConfig(target_ci=0.0)
        with pytest.raises(CampaignError):
            AdaptiveConfig(min_per_cell=0)
