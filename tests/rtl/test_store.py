"""Adaptive PVF runner smoke tests."""

import pytest


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
