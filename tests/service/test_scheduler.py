"""Job validation and execution: budgets, cancellation, resume, parity.

pvf/rtl jobs run on an executing daemon, whose local worker claims them
shard by shard; pipeline jobs run whole on :meth:`Scheduler.run_once`.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import CampaignCancelled, ServiceError
from repro.service import (
    CampaignWorker,
    JobStore,
    Scheduler,
    ServiceClient,
    ServiceDaemon,
    execute_job,
    normalize_params,
)
from repro.service import worker as worker_module


class TestNormalizeParams:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            normalize_params("fuzz", {})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ServiceError, match="unknown parameter"):
            normalize_params("pvf", {"app": "MxM", "warp": 3})

    def test_pvf_defaults_and_canonical_app(self):
        params = normalize_params("pvf", {"app": "mxm"})
        assert params["app"] == "MxM"  # case-insensitive lookup
        assert params["model"] == "bitflip"
        assert params["injections"] == 300
        assert params["seed"] == 0
        assert params["jobs"] == 1
        assert params["budget"] is None

    def test_pvf_rejects_unknown_app_and_model(self):
        with pytest.raises(ServiceError, match="unknown application"):
            normalize_params("pvf", {"app": "nosuch"})
        with pytest.raises(ServiceError, match="unknown fault model"):
            normalize_params("pvf", {"app": "MxM", "model": "gamma"})

    def test_rtl_uppercases_opcode_and_range(self):
        params = normalize_params("rtl", {"opcode": "fadd", "range": "l"})
        assert params["opcode"] == "FADD"
        assert params["range"] == "L"
        assert params["module"] == "fp32"
        assert params["faults"] == 500

    def test_rtl_rejects_bad_opcode_module_range(self):
        with pytest.raises(ServiceError, match="unknown opcode"):
            normalize_params("rtl", {"opcode": "FNORD"})
        with pytest.raises(ServiceError, match="unknown module"):
            normalize_params("rtl", {"module": "fp128"})
        with pytest.raises(ServiceError, match="unknown input range"):
            normalize_params("rtl", {"range": "XL"})

    def test_pipeline_defaults(self):
        params = normalize_params("pipeline", {"apps": ["mxm", "lava"]})
        assert params["apps"] == ["MxM", "Lava"]
        assert params["models"] == ["bitflip", "syndrome"]
        assert params["opcodes"] is None
        assert params["grid_faults"] == 200

    def test_pipeline_rejects_empty_lists(self):
        with pytest.raises(ServiceError, match="non-empty list"):
            normalize_params("pipeline", {"apps": []})
        with pytest.raises(ServiceError, match="non-empty list"):
            normalize_params("pipeline", {"models": []})

    def test_type_checks(self):
        with pytest.raises(ServiceError, match="must be an integer"):
            normalize_params("pvf", {"app": "MxM", "injections": "many"})
        with pytest.raises(ServiceError, match="must be a number"):
            normalize_params("pvf", {"app": "MxM", "budget": "later"})
        with pytest.raises(ServiceError, match="must be positive"):
            normalize_params("pvf", {"app": "MxM", "budget": -1})
        with pytest.raises(ServiceError, match=">= 1"):
            normalize_params("pvf", {"app": "MxM", "jobs": 0})
        with pytest.raises(ServiceError, match="'injections' must be >= 1"):
            normalize_params("pvf", {"app": "MxM", "injections": 0})
        with pytest.raises(ServiceError, match="'faults' must be >= 1"):
            normalize_params("rtl", {"faults": 0})


#: a small pipeline job: one opcode, one app, one model
_PIPELINE = {"apps": ["MxM"], "models": ["bitflip"], "opcodes": ["FADD"],
             "grid_faults": 4, "tmxm_faults": 4, "injections": 4}


@pytest.fixture
def daemon(tmp_path):
    """An executing daemon whose local worker heartbeats every 0.5 s."""
    daemon = ServiceDaemon(tmp_path / "svc", port=0, poll_interval=0.05)
    daemon.worker.lease_seconds = 1.5
    with daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.url, timeout=30.0)


def _run(client, kind="pvf", **params):
    return client.wait(client.submit(kind, **params)["id"], timeout=120)


def _direct_pvf(injections, seed, batch_size):
    from repro.apps import make_application
    from repro.swfi.campaign import run_pvf_campaign
    from repro.swfi.models import SingleBitFlip

    return run_pvf_campaign(make_application("MxM", seed=seed),
                            SingleBitFlip(), injections, seed=seed,
                            batch_size=batch_size).to_dict()


def _report(daemon, job):
    jobdir = daemon.scheduler.jobdir(job["id"])
    return json.loads((jobdir / "report.json").read_text())


def _metrics(daemon, job):
    jobdir = daemon.scheduler.jobdir(job["id"])
    return json.loads((jobdir / "metrics.json").read_text())


class TestExecuteJob:
    """pvf/rtl jobs on the daemon's local worker."""

    def test_pvf_job_writes_report_and_metrics(self, daemon, client):
        job = _run(client, app="MxM", injections=20, seed=7, batch_size=10,
                   units_per_claim=1)
        assert job["state"] == "done"
        result = job["result"]
        assert result["kind"] == "pvf"
        assert result["n_injections"] == 20
        assert 0.0 <= result["pvf"] <= 1.0
        assert _report(daemon, job) == result
        metrics = _metrics(daemon, job)
        assert metrics["kind"] == "campaign-metrics"
        assert metrics["units_done"] == 2
        # the worker's timing rows, kept across both deliveries, and a
        # stage wall-clock spanning the job's run
        for unit in metrics["units"]:
            assert unit["seconds"] > 0
            assert unit["worker"] == os.getpid()
        assert metrics["wall_seconds"] >= sum(
            unit["seconds"] for unit in metrics["units"]) - 1e-3

    @pytest.mark.multicore
    def test_pool_jobs_run_on_their_own_pool(self, daemon, client):
        job = _run(client, app="MxM", injections=40, seed=7, batch_size=5,
                   jobs=2, units_per_claim=8)
        assert job["state"] == "done"
        pids = {unit["worker"] for unit in _metrics(daemon, job)["units"]}
        assert len(pids) == 2 and os.getpid() not in pids
        assert _report(daemon, job)["report"] == _direct_pvf(40, 7, 5)

    def test_result_bit_identical_to_direct_run(self, daemon, client):
        job = _run(client, app="MxM", injections=30, seed=5, batch_size=10)
        assert job["result"]["report"] == _direct_pvf(30, 5, 10)

    def test_rtl_job_runs(self, daemon, client):
        job = _run(client, "rtl", opcode="FADD", faults=30, seed=3,
                   batch_size=15)
        result = job["result"]
        assert result["kind"] == "rtl"
        assert result["n_faults"] == 30
        assert result["n_masked"] + result["n_sdc"] + result["n_due"] == 30

    def test_budget_exceeded_fails_with_requeue_hint(self, client):
        job = _run(client, app="MxM", injections=40, seed=1, batch_size=10,
                   units_per_claim=1, budget=1e-9)
        assert job["state"] == "failed"
        assert "wall-clock budget" in job["error"]
        assert "requeue" in job["error"]

    def test_cancel_requested_stops_between_units(self, daemon, client,
                                                  monkeypatch):
        real = worker_module.run_job_units
        submitted = threading.Event()

        def cancelled_first(kind, params, lo, hi, **kwargs):
            submitted.wait(10)
            client.cancel(job_id)
            time.sleep(0.6)  # past the worker's heartbeat interval
            return real(kind, params, lo, hi, **kwargs)

        monkeypatch.setattr(worker_module, "run_job_units",
                            cancelled_first)
        job_id = client.submit("pvf", app="MxM", injections=40, seed=1,
                               batch_size=10)["id"]
        submitted.set()
        job = client.wait(job_id, timeout=60)
        assert job["state"] == "cancelled"
        # the heartbeat stopped the shard before its first unit
        jobdir = daemon.scheduler.jobdir(job_id)
        assert not list(jobdir.glob("*.jsonl"))
        assert all(s["state"] == "queued" for s in job["shards"])

    def test_cancel_mid_run_then_resume_is_bit_identical(
            self, daemon, client, monkeypatch):
        real = worker_module.run_job_units
        calls, submitted = [], threading.Event()

        def cancel_after_first_shard(kind, params, lo, hi, **kwargs):
            reports = real(kind, params, lo, hi, **kwargs)
            calls.append(lo)
            if len(calls) == 1:
                submitted.wait(10)
                client.cancel(job_id)
            return reports

        monkeypatch.setattr(worker_module, "run_job_units",
                            cancel_after_first_shard)
        job_id = client.submit("pvf", app="MxM", injections=30, seed=5,
                               batch_size=10, units_per_claim=1)["id"]
        submitted.set()
        assert client.wait(job_id, timeout=60)["state"] == "cancelled"
        journal = (daemon.scheduler.jobdir(job_id) / "pvf.jsonl")
        assert len(journal.read_text().splitlines()) - 1 == 1

        client.requeue(job_id)  # resumes from the journaled unit
        job = client.wait(job_id, timeout=60)
        assert job["state"] == "done"
        assert job["attempts"] == 2
        assert sorted(calls) == [0, 1, 2]
        assert job["result"]["report"] == _direct_pvf(30, 5, 10)

    def test_worker_error_fails_the_job(self, client, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(worker_module, "run_job_units", explode)
        job = _run(client, app="MxM", injections=10)
        assert job["state"] == "failed"
        assert "RuntimeError: worker exploded" in job["error"]
        assert "'local'" in job["error"]


class TestSchedulerLifecycle:
    def test_run_once_full_lifecycle(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        scheduler = Scheduler(store, tmp_path)
        store.submit("pipeline", normalize_params("pipeline", _PIPELINE))
        job = scheduler.run_once()
        assert job.state == "done"
        assert job.result["kind"] == "pipeline"
        assert (scheduler.jobdir(job.id) / "report.json").exists()

    def test_run_once_empty_queue_returns_none(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        # pvf/rtl jobs are claimed by workers, never by the scheduler
        store.submit("pvf", normalize_params("pvf", {"app": "MxM"}))
        assert Scheduler(store, tmp_path).run_once() is None
        assert store.get(1).state == "queued"

    def test_budget_failure_then_requeue_completes(self, daemon, client):
        job = _run(client, app="MxM", injections=20, seed=4, batch_size=5,
                   units_per_claim=1, budget=1e-9)
        assert job["state"] == "failed"
        assert "wall-clock budget" in job["error"]

        # lift the budget and requeue: the journal makes it resume
        params = dict(job["params"], budget=None)
        with daemon.store._connect() as conn:
            conn.execute("UPDATE jobs SET params = ? WHERE id = ?",
                         (json.dumps(params), job["id"]))
        client.requeue(job["id"])
        job = client.wait(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["attempts"] == 2
        assert job["result"]["report"] == _direct_pvf(20, 4, 5)

    def test_cancelled_job_lands_in_cancelled(self, tmp_path, monkeypatch):
        from repro.service import scheduler as scheduler_module

        store = JobStore(tmp_path / "jobs.sqlite3")
        scheduler = Scheduler(store, tmp_path)
        store.submit("pipeline", normalize_params("pipeline", {}))

        def fake_execute(job, jobdir, store=None):
            raise CampaignCancelled("stopped for the test")

        monkeypatch.setattr(scheduler_module, "execute_job", fake_execute)
        job = scheduler.run_once()
        assert job.state == "cancelled"
        assert "stopped for the test" in job.error

    def test_unexpected_failure_records_traceback(self, tmp_path,
                                                  monkeypatch):
        from repro.service import scheduler as scheduler_module

        store = JobStore(tmp_path / "jobs.sqlite3")
        scheduler = Scheduler(store, tmp_path)
        store.submit("pipeline", normalize_params("pipeline", {}))

        def fake_execute(job, jobdir, store=None):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(scheduler_module, "execute_job", fake_execute)
        job = scheduler.run_once()
        assert job.state == "failed"
        assert "RuntimeError: worker exploded" in job.error

    def test_recover_requeues_interrupted_job(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        store.submit("pipeline", normalize_params("pipeline", _PIPELINE))
        store.claim_next()  # daemon "dies" here
        recovered = store.recover()
        assert [j.state for j in recovered] == ["queued"]
        job = Scheduler(store, tmp_path).run_once()
        assert job.state == "done"
        assert job.attempts == 2

    def test_restart_between_shards_resumes_bit_identically(self,
                                                            tmp_path):
        workdir = tmp_path / "svc"
        with ServiceDaemon(workdir, port=0, poll_interval=0.05,
                           execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            job_id = client.submit("pvf", app="MxM", injections=20, seed=5,
                                   batch_size=5, units_per_claim=1)["id"]
            CampaignWorker(daemon.url, name="w0").run_forever(max_claims=1)
        # the daemon went down with the job running and no shard leased;
        # an executing daemon on the same workdir re-queues it at start
        with ServiceDaemon(workdir, port=0, poll_interval=0.05) as daemon:
            job = ServiceClient(daemon.url, timeout=30.0).wait(
                job_id, timeout=60)
        assert job["state"] == "done"
        assert job["attempts"] == 2
        assert job["result"]["report"] == _direct_pvf(20, 5, 5)

    def test_execute_job_runs_pipelines_only(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job = store.submit("pvf", normalize_params("pvf", {"app": "MxM"}))
        with pytest.raises(ServiceError, match="shards on workers"):
            execute_job(job, tmp_path / "jobs" / "1", store=store)
