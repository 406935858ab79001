"""Every job kind writes the same bytes in-process and sharded.

One job runs in-process through :func:`execute_job`; the same job runs
as worker shards — :func:`run_job_units` results delivered through
:meth:`CampaignService.post_units` and merged by
:func:`finalize_sharded_job`.  Both must write byte-identical
``report.json`` (and ``signature.json``) over journals with the same
header.  Adaptive jobs move their shard horizon as results land, so the
shard loop keeps claiming until the coordinator hands out no more work.
"""

import json
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    ApiError,
    CampaignService,
    CampaignWorker,
    JobStore,
    Scheduler,
    ServiceClient,
    ServiceDaemon,
    execute_job,
    normalize_params,
    run_job_units,
)

_RTL = {"opcode": "FADD", "module": "fp32", "range": "M", "faults": 30,
        "seed": 4, "batch_size": 5}
_BURST = dict(_RTL, fault_model="burst", burst_width=3, burst_window=2)
_ADAPTIVE = {"target_ci": 0.25, "min_per_cell": 10}

JOBS = {
    "pvf": ("pvf", {"app": "MxM", "injections": 20, "seed": 3,
                    "batch_size": 5}),
    "rtl-transient": ("rtl", _RTL),
    "rtl-burst": ("rtl", _BURST),
    "stuck-at": ("rtl", {"module": "sfu_controller", "faults": 2,
                         "seed": 5, "fault_model": "stuck-at"}),
    "adaptive-pvf": ("pvf", {"app": "MxM", "injections": 60, "seed": 9,
                             "batch_size": 5, **_ADAPTIVE}),
    "adaptive-rtl": ("rtl", dict(_RTL, faults=60, **_ADAPTIVE)),
    "adaptive-burst": ("rtl", dict(_BURST, faults=60, **_ADAPTIVE)),
}


def _in_process(tmp_path, kind, params):
    store = JobStore(tmp_path / "in-process.sqlite3")
    store.submit(kind, normalize_params(kind, params))
    jobdir = tmp_path / "in-process"
    execute_job(store.claim_next(), jobdir, store=store)
    return jobdir


def _sharded(tmp_path, kind, params):
    store = JobStore(tmp_path / "sharded.sqlite3")
    scheduler = Scheduler(store, tmp_path / "coordinator",
                          execute_jobs=False)
    service = CampaignService(store, scheduler)
    job_id = service.submit({"kind": kind, "params": params})["id"]
    while True:
        claim = service.claim({"worker": "w0", "max_units": 2})
        if claim is None:
            break
        lo, hi = claim["units"]
        reports = run_job_units(kind, claim["job"]["params"], lo, hi)
        service.post_units(job_id, {"worker": "w0", "lo": lo,
                                    "reports": reports})
    assert store.get(job_id).state == "done"
    return scheduler.jobdir(job_id)


def _journal_header(jobdir):
    (journal,) = jobdir.glob("*.jsonl")
    return journal.name, journal.read_text().splitlines()[0]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_in_process_and_sharded_runs_write_the_same_bytes(tmp_path, name):
    kind, params = JOBS[name]
    direct = _in_process(tmp_path, kind, params)
    sharded = _sharded(tmp_path, kind, params)
    report = (direct / "report.json").read_bytes()
    assert (sharded / "report.json").read_bytes() == report
    assert _journal_header(sharded) == _journal_header(direct)
    result = json.loads(report)
    if name == "stuck-at":
        assert ((sharded / "signature.json").read_bytes()
                == (direct / "signature.json").read_bytes())
    if name.startswith("adaptive"):
        assert result["adaptive"]["rounds"] >= 2  # the horizon moved
    if "burst" in name:
        # the job's fault model is the one its report announces
        assert result["fault_model"] == "burst"
        assert json.loads((direct / "rtl.jsonl").read_text().splitlines()
                          [0])["fault_model"] == "burst"


class TestShardedBudget:
    """A sharded job's ``budget`` fires at the coordinator, with the
    in-process run's outcome and message."""

    PARAMS = {"app": "MxM", "injections": 8, "batch_size": 2,
              "budget": 1e-6}

    def test_a_drained_job_fails_like_an_in_process_run(self, tmp_path):
        store = JobStore(tmp_path / "in-process.sqlite3")
        store.submit("pvf", normalize_params("pvf", self.PARAMS))
        in_process = Scheduler(store, tmp_path / "in-process").run_once()
        assert in_process.state == "failed"

        with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=0.05,
                           quiet=True, execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            job_id = client.submit("pvf", units_per_claim=1,
                                   **self.PARAMS)["id"]
            worker = CampaignWorker(daemon.url, name="w0",
                                    lease_seconds=60, poll_interval=0.05)
            # the first claim starts the clock; the next one finds the
            # job failed instead of another shard
            assert worker.run_forever(drain=True) == 1
            job = client.job(job_id)
        assert job_id == in_process.id
        assert job["state"] == "failed"
        assert job["error"] == in_process.error
        assert all(shard["state"] != "leased" for shard in job["shards"])

    def test_shard_holders_stop_at_their_next_heartbeat(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        service = CampaignService(
            store, Scheduler(store, tmp_path, execute_jobs=False))
        job_id = service.submit({"kind": "pvf", "params": dict(
            self.PARAMS, budget=30, units_per_claim=1)})["id"]
        claim = service.claim({"worker": "w0", "lease_seconds": 600})
        lo, hi = claim["units"]
        service.post_units(job_id, {"worker": "w0", "lo": lo, "reports":
                                    run_job_units("pvf", claim["job"]
                                                  ["params"], lo, hi)})
        beat = {"worker": "w1", "lease_seconds": 600}
        service.claim(beat)
        service.heartbeat(job_id, beat)

        # a minute on, the 30 s budget is spent but the leases are not
        assert store.reap(now=time.time() + 60)["failed"] == [job_id]
        with pytest.raises(ApiError, match="holds no lease") as caught:
            service.heartbeat(job_id, beat)
        assert caught.value.status == 409
        assert [s["state"] for s in store.shards(job_id)] == [
            "done", "queued", "queued", "queued"]
        # the delivered unit stays journaled for a requeue to resume
        (journal,) = service.scheduler.jobdir(job_id).glob("*.jsonl")
        assert len(journal.read_text().splitlines()) == 2


class TestCoordinatorOnlySubmit:
    """``serve --no-scheduler`` refuses jobs no worker could claim."""

    @pytest.fixture
    def service(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        return CampaignService(
            store, Scheduler(store, tmp_path, execute_jobs=False))

    def test_pipeline_jobs_are_refused_with_the_reason(self, service):
        with pytest.raises(ApiError, match="pipeline") as caught:
            service.submit({"kind": "pipeline", "params": {}})
        assert caught.value.status == 422
        assert "--no-scheduler" in str(caught.value)
        assert service.store.list_jobs() == []

    def test_empty_campaigns_are_refused(self, service):
        with pytest.raises(ApiError, match="empty campaigns") as caught:
            service.submit({"kind": "pvf",
                            "params": {"app": "MxM", "injections": 0}})
        assert caught.value.status == 422

    def test_claimable_jobs_are_accepted(self, service):
        for kind, params in JOBS.values():
            service.submit({"kind": kind, "params": params})
        assert len(service.store.list_jobs()) == len(JOBS)

    def test_scheduler_daemons_still_take_pipelines(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        service = CampaignService(store, Scheduler(store, tmp_path))
        assert service.submit({"kind": "pipeline",
                               "params": {}})["state"] == "queued"

    def test_http_answer_names_the_reason(self, tmp_path):
        with ServiceDaemon(tmp_path / "svc", port=0, quiet=True,
                           execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            with pytest.raises(ServiceError, match=r"\(422\).*pipeline"):
                client.submit("pipeline")

    def test_coordinators_accept_a_timeout(self, service):
        # workers run their units on their main thread, where the
        # wall-clock guard fires
        for kind, params in JOBS.values():
            service.submit({"kind": kind,
                            "params": dict(params, timeout=5)})
        assert len(service.store.list_jobs()) == len(JOBS)


class TestUnenforceableTimeout:
    """A daemon runs ``jobs=1`` jobs on its scheduler thread, where the
    SIGALRM wall-clock guard is a no-op: it must refuse their
    ``timeout`` rather than accept it silently."""

    @pytest.fixture
    def service(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        return CampaignService(store, Scheduler(store, tmp_path))

    @pytest.mark.parametrize("kind,params", [
        JOBS["pvf"], JOBS["rtl-transient"], ("pipeline", {})])
    def test_in_process_timeout_is_refused(self, service, kind, params):
        with pytest.raises(ApiError, match="cannot be enforced") as caught:
            service.submit({"kind": kind,
                            "params": dict(params, timeout=5)})
        assert caught.value.status == 422
        assert service.store.list_jobs() == []

    def test_pool_jobs_keep_their_timeout(self, service):
        job = service.submit({"kind": "pvf",
                              "params": {"app": "MxM", "timeout": 5,
                                         "jobs": 2}})
        assert job["params"]["timeout"] == 5

    def test_http_answer_names_the_reason(self, tmp_path):
        with ServiceDaemon(tmp_path / "svc", port=0, quiet=True) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            with pytest.raises(ServiceError,
                               match=r"\(422\).*cannot be enforced"):
                client.submit("pvf", app="MxM", injections=4, timeout=5)
            assert client.jobs() == []
