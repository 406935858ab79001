"""Adaptive campaigns through the service: params, shards, patterns.

The moving-horizon protocol under test: an adaptive job's shard table
starts at the warm-up horizon; when the last planned shard lands the
daemon replays the journal through the job spec's
:class:`~repro.adaptive.AdaptiveController` (``replay`` →
``planned_units``), extends the table, and the job keeps running until
the replayed decision is "stop".  The merged result must be
bit-identical to the in-process adaptive runner — same report bytes,
same per-cell decision record, same round count.
"""

import json
import time

import pytest

from repro.adaptive import AdaptiveConfig, run_adaptive_pvf_campaign
from repro.apps import make_application
from repro.artifacts import load_artifact
from repro.errors import ServiceError
from repro.service import (
    CampaignWorker,
    JobStore,
    ServiceClient,
    ServiceDaemon,
    normalize_params,
)
from repro.swfi.models import SingleBitFlip


class TestAdaptiveParams:
    def test_adaptive_trio_passes_through(self):
        params = normalize_params("pvf", {
            "app": "MxM", "target_ci": 0.1, "strategy": "uniform",
            "min_per_cell": 50})
        assert params["target_ci"] == 0.1
        assert params["strategy"] == "uniform"
        assert params["min_per_cell"] == 50

    def test_fixed_size_jobs_default_to_none(self):
        params = normalize_params("pvf", {"app": "MxM"})
        assert params["target_ci"] is None
        assert params["strategy"] is None
        assert params["min_per_cell"] is None

    @pytest.mark.parametrize("target_ci", [0.0, 1.0, 1.5, -0.5, "tight"])
    def test_target_ci_must_be_a_fraction(self, target_ci):
        with pytest.raises(ServiceError, match="target_ci"):
            normalize_params("pvf", {"app": "MxM",
                                     "target_ci": target_ci})

    def test_strategy_requires_target_ci(self):
        with pytest.raises(ServiceError, match="target_ci"):
            normalize_params("pvf", {"app": "MxM",
                                     "strategy": "uniform"})

    def test_min_per_cell_requires_target_ci(self):
        with pytest.raises(ServiceError, match="target_ci"):
            normalize_params("pvf", {"app": "MxM", "min_per_cell": 10})

    def test_bad_strategy_and_min_per_cell_rejected(self):
        with pytest.raises(ServiceError, match="strategy"):
            normalize_params("pvf", {"app": "MxM", "target_ci": 0.1,
                                     "strategy": "greedy"})
        with pytest.raises(ServiceError, match="min_per_cell"):
            normalize_params("pvf", {"app": "MxM", "target_ci": 0.1,
                                     "min_per_cell": 0})

    def test_adaptive_rtl_gets_a_finite_batch_size(self):
        # a fixed rtl job defaults to one whole-campaign unit, which
        # leaves an adaptive controller nothing to decide between
        fixed = normalize_params("rtl", {"opcode": "FADD"})
        assert fixed["batch_size"] is None
        adaptive = normalize_params("rtl", {"opcode": "FADD",
                                            "target_ci": 0.1})
        assert adaptive["batch_size"] == 50
        explicit = normalize_params("rtl", {"opcode": "FADD",
                                            "target_ci": 0.1,
                                            "batch_size": 10})
        assert explicit["batch_size"] == 10


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


def _plan(total, per_claim):
    def plan(job):
        return total, per_claim
    return plan


class TestClaimSplitting:
    def test_wide_shard_is_split_at_max_units(self, store):
        job = store.submit("pvf", {"app": "MxM"})
        _, (lo, hi) = store.claim_shard("w1", 30.0, _plan(8, 4),
                                        max_units=1)
        assert (lo, hi) == (0, 1)
        # the remainder was re-queued, not lost: the next claim gets it
        _, (lo, hi) = store.claim_shard("w2", 30.0, _plan(8, 4),
                                        max_units=2)
        assert (lo, hi) == (1, 3)
        # the shard table still tiles [0, 8) exactly once
        spans = sorted((s["lo"], s["hi"]) for s in store.shards(job.id))
        assert spans[0][0] == 0 and spans[-1][1] == 8
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_narrow_shard_is_untouched(self, store):
        store.submit("pvf", {"app": "MxM"})
        _, (lo, hi) = store.claim_shard("w1", 30.0, _plan(8, 4),
                                        max_units=4)
        assert (lo, hi) == (0, 4)

    def test_extend_shards_appends_only_the_new_tail(self, store):
        job = store.submit("pvf", {"app": "MxM"})
        store.claim_shard("w1", 30.0, _plan(4, 2))  # shards [0,2) [2,4)
        assert store.extend_shards(job.id, 8, 2) == 2
        spans = sorted((s["lo"], s["hi"]) for s in store.shards(job.id))
        assert spans == [(0, 2), (2, 4), (4, 6), (6, 8)]
        # idempotent: an already-covered horizon adds nothing
        assert store.extend_shards(job.id, 8, 2) == 0


class TestWorkerPacing:
    def _worker(self, **kwargs):
        kwargs.setdefault("lease_seconds", 30.0)
        return CampaignWorker("http://127.0.0.1:9", name="pace",
                              poll_interval=0.01, **kwargs)

    def test_no_cap_before_first_delivery(self):
        assert self._worker().target_units() is None

    def test_slow_units_shrink_the_claim(self):
        worker = self._worker()
        worker.target_units()
        worker._observe_units(5, 10.0)  # 2 s/unit
        assert worker.target_units() == 15
        worker._observe_units(1, 60.0)  # one awful unit: EMA -> 31 s
        assert worker.target_units() == 1

    def test_fast_units_widen_the_claim_back(self):
        worker = self._worker()
        worker._observe_units(1, 60.0)
        assert worker.target_units() == 1
        for _ in range(10):
            worker._observe_units(10, 1.0)  # 0.1 s/unit
        assert worker.target_units() > 50

    def test_degenerate_observations_are_ignored(self):
        worker = self._worker()
        worker._observe_units(0, 1.0)
        worker._observe_units(5, 0.0)
        assert worker.target_units() is None


@pytest.fixture
def daemon(tmp_path):
    with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=0.05,
                       execute_jobs=False) as daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.url, timeout=30.0)


def _drain_to_terminal(daemon, client, job_id, timeout=120.0):
    """Drain a worker until *job_id* settles.

    A drain exits when the claim queue runs dry — but an adaptive
    finalize may extend the shard table right afterwards, so the worker
    loops until the job actually reaches a terminal state.
    """
    worker = CampaignWorker(daemon.url, name="w0", lease_seconds=60,
                            poll_interval=0.05)
    deadline = time.monotonic() + timeout
    while True:
        worker.run_forever(drain=True)
        state = client.job(job_id)["state"]
        if state in ("done", "failed", "cancelled"):
            return state
        assert time.monotonic() < deadline, \
            f"job {job_id} stuck in {state}"
        time.sleep(0.1)


class TestAdaptiveJobs:
    def test_sharded_pvf_job_matches_in_process_adaptive_run(
            self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=200, seed=9,
                            batch_size=5, target_ci=0.1,
                            min_per_cell=20, units_per_claim=2)
        assert _drain_to_terminal(daemon, client, job["id"]) == "done"

        payload = json.loads(client.artifact(job["id"], "report")[0])
        direct = run_adaptive_pvf_campaign(
            make_application("MxM", seed=9), SingleBitFlip(), 200,
            AdaptiveConfig(target_ci=0.1, min_per_cell=20), seed=9,
            batch_size=5)
        assert direct.rounds >= 2  # the horizon must actually move
        assert payload["report"] == direct.report.to_dict()
        assert payload["adaptive"]["rounds"] == direct.rounds
        assert payload["adaptive"]["converged"] == direct.converged
        assert payload["adaptive"]["cells"] == direct.summary

    def test_patterns_artifact_for_an_rtl_job(self, daemon, client):
        job = client.submit("rtl", opcode="FADD", module="fp32",
                            range="M", faults=30, seed=3,
                            batch_size=10)
        assert _drain_to_terminal(daemon, client, job["id"]) == "done"

        from repro.analytics import mine_patterns

        report_payload = json.loads(
            client.artifact(job["id"], "report")[0])
        report = load_artifact("rtl-report", report_payload["report"])
        body, etag = client.artifact(job["id"], "patterns")
        mined = load_artifact("pattern-report", json.loads(body))
        assert mined == mine_patterns(report)
        assert mined.source == "rtl"
        # the artifact is cached and revalidates by ETag
        body2, etag2 = client.artifact(job["id"], "patterns", etag=etag)
        assert body2 is None and etag2 == etag

    def test_patterns_artifact_for_a_pvf_job(self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=20, seed=5,
                            batch_size=5)
        assert _drain_to_terminal(daemon, client, job["id"]) == "done"
        body, _ = client.artifact(job["id"], "patterns")
        mined = load_artifact("pattern-report", json.loads(body))
        assert mined.source == "pvf"
        assert mined.spatial is None and mined.temporal is None
        assert mined.n_injections == 20

    def test_claim_rejects_bad_max_units(self, daemon, client):
        for bad in (0, -1, "two", True):
            with pytest.raises(ServiceError, match="max_units"):
                client.claim("w0", 30.0, max_units=bad)
