"""Every job kind writes the direct run's bytes on both service paths.

The reference is a direct run of the job's campaign spec
(``job_spec(kind, params).run()``) merged into ``report.json``, with the
journal header ``spec.journal`` writes.  The same job then runs
in-process — an executing :class:`ServiceDaemon`, whose local worker
claims it shard by shard — and sharded by hand: :func:`run_job_units`
results delivered through :meth:`CampaignService.post_units` and merged
by :func:`finalize_sharded_job`.  Both must write the reference
``report.json`` (and ``signature.json``) bytes over a journal with the
reference header.  Adaptive jobs move their shard horizon as results
land, so the shard loop keeps claiming until no work is left.
"""

import json
import time

import pytest

from repro.errors import BudgetExceeded, ServiceError
from repro.service import (
    ApiError,
    CampaignService,
    CampaignWorker,
    JobStore,
    Scheduler,
    ServiceClient,
    ServiceDaemon,
    normalize_params,
    run_job_units,
)
from repro.service.scheduler import (
    _controller,
    _job_result,
    job_spec,
    spec_journal,
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


def _direct(tmp_path, kind, params):
    params = normalize_params(kind, params)
    spec = job_spec(kind, params)
    controller = _controller(spec, params)
    jobdir = tmp_path / "direct"
    jobdir.mkdir()
    result = _job_result(params, spec, spec.run(adaptive=controller),
                         controller, jobdir)
    (jobdir / "report.json").write_text(json.dumps(result, indent=2)
                                        + "\n")
    spec_journal(spec, jobdir).close()  # header only
    return jobdir


def _in_process(tmp_path, kind, params):
    with ServiceDaemon(tmp_path / "in-process", port=0,
                       poll_interval=0.05) as daemon:
        client = ServiceClient(daemon.url, timeout=30.0)
        job = client.wait(client.submit(kind, **params)["id"], timeout=240)
    assert job["state"] == "done", job
    return daemon.scheduler.jobdir(job["id"])


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
    direct = _direct(tmp_path, kind, params)
    report = (direct / "report.json").read_bytes()
    result = json.loads(report)
    for jobdir in (_in_process(tmp_path, kind, params),
                   _sharded(tmp_path, kind, params)):
        assert (jobdir / "report.json").read_bytes() == report
        assert _journal_header(jobdir) == _journal_header(direct)
        if name == "stuck-at":
            assert ((jobdir / "signature.json").read_bytes()
                    == (direct / "signature.json").read_bytes())
    if name.startswith("adaptive"):
        assert result["adaptive"]["rounds"] >= 2  # the horizon moved
    if "burst" in name:
        # the job's fault model is the one its report announces
        assert result["fault_model"] == "burst"
        assert json.loads((direct / "rtl.jsonl").read_text().splitlines()
                          [0])["fault_model"] == "burst"


class TestShardedBudget:
    """A job's ``budget`` fires at the coordinator, with one outcome and
    message whichever worker runs the job."""

    PARAMS = {"app": "MxM", "injections": 8, "batch_size": 2,
              "budget": 1e-6}

    def test_a_drained_job_fails_like_an_in_process_run(self, tmp_path):
        with ServiceDaemon(tmp_path / "in-process", port=0,
                           poll_interval=0.05) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            in_process = client.wait(client.submit(
                "pvf", units_per_claim=1, **self.PARAMS)["id"], timeout=60)
        assert in_process["state"] == "failed"
        assert in_process["error"] == str(
            BudgetExceeded.for_job(in_process["id"], 1e-6))

        with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=0.05,
                           execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            job_id = client.submit("pvf", units_per_claim=1,
                                   **self.PARAMS)["id"]
            worker = CampaignWorker(daemon.url, name="w0",
                                    lease_seconds=60, poll_interval=0.05)
            # the first claim starts the clock; the next one finds the
            # job failed instead of another shard
            assert worker.run_forever(drain=True) == 1
            job = client.job(job_id)
        assert job_id == in_process["id"]
        assert job["state"] == "failed"
        assert job["error"] == in_process["error"]
        for shards in (job["shards"], in_process["shards"]):
            assert all(shard["state"] != "leased" for shard in shards)

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


class TestDeliveryValidation:
    """A delivery must carry exactly its leased shard's units; a stale
    one is a 409 whatever it carries.  A refused delivery journals
    nothing and leaves the shard leased."""

    PARAMS = {"app": "MxM", "injections": 8, "batch_size": 2,
              "units_per_claim": 2}

    @pytest.fixture
    def service(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        service = CampaignService(
            store, Scheduler(store, tmp_path, execute_jobs=False))
        service.submit({"kind": "pvf", "params": self.PARAMS})
        return service

    @staticmethod
    def _claim(service, worker):
        claim = service.claim({"worker": worker})
        lo, hi = claim["units"]
        return (claim["job"]["id"], lo,
                run_job_units("pvf", claim["job"]["params"], lo, hi))

    @staticmethod
    def _status(service, job_id, payload):
        with pytest.raises(ApiError) as caught:
            service.post_units(job_id, payload)
        return caught.value.status

    @staticmethod
    def _untouched(service, job_id, states):
        jobdir = service.scheduler.jobdir(job_id)
        assert not list(jobdir.glob("*.jsonl")), "a unit was journaled"
        assert [s["state"] for s in service.store.shards(job_id)] == states

    def test_a_partial_delivery_is_refused(self, service):
        job_id, lo, reports = self._claim(service, "w0")  # units [0, 2)
        partial = {"worker": "w0", "lo": lo, "reports": {0: reports[0]}}
        assert self._status(service, job_id,
                            dict(partial, worker="late")) == 409
        assert self._status(service, job_id, partial) == 400
        self._untouched(service, job_id, ["leased", "queued"])

        # the shard's full delivery and its neighbour's finish the job
        service.post_units(job_id, dict(partial, reports=reports))
        _, lo, reports = self._claim(service, "w1")
        service.post_units(job_id, {"worker": "w1", "lo": lo,
                                    "reports": reports})
        assert service.store.get(job_id).state == "done"

    def test_an_over_delivery_is_refused(self, service):
        job_id, lo, reports = self._claim(service, "w0")
        extra = run_job_units("pvf", service.store.get(job_id).params, 2, 4)
        assert self._status(service, job_id, {
            "worker": "w0", "lo": lo,
            "reports": {**reports, **extra}}) == 400
        self._untouched(service, job_id, ["leased", "queued"])

    def test_malformed_unit_telemetry_is_refused(self, service):
        job_id, lo, reports = self._claim(service, "w0")
        for units in ("fast", [{"seconds": 1.0}],
                      [{"index": 7, "seconds": 1.0}]):
            assert self._status(service, job_id, {
                "worker": "w0", "lo": lo, "reports": reports,
                "units": units}) == 400
        self._untouched(service, job_id, ["leased", "queued"])


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

    def test_empty_campaigns_are_refused(self, service, tmp_path):
        # a 400 on every daemon: every pvf/rtl job has a unit to shard
        store = JobStore(tmp_path / "executing.sqlite3")
        executing = CampaignService(store, Scheduler(store, tmp_path))
        for daemon in (service, executing):
            for kind, params in (("pvf", {"app": "MxM", "injections": 0}),
                                 ("rtl", {"faults": 0})):
                with pytest.raises(ApiError, match=">= 1") as caught:
                    daemon.submit({"kind": kind, "params": params})
                assert caught.value.status == 400
            assert daemon.store.list_jobs() == []

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
        with ServiceDaemon(tmp_path / "svc", port=0,
                           execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30.0)
            with pytest.raises(ServiceError, match=r"\(422\).*pipeline"):
                client.submit("pipeline")


class TestTimeout:
    """No job kind takes a ``timeout``: a hung run ends at a watchdog
    that counts simulated work — the SM's cycles for rtl jobs, the
    ``SassOps`` dynamic instructions for pvf and pipeline jobs — so the
    parameter is unknown (400) on any daemon, whatever the job's
    ``jobs``."""

    @pytest.mark.parametrize("execute_jobs", [True, False])
    def test_a_timeout_is_an_unknown_parameter(self, tmp_path,
                                               execute_jobs):
        store = JobStore(tmp_path / "jobs.sqlite3")
        service = CampaignService(
            store, Scheduler(store, tmp_path, execute_jobs=execute_jobs))
        for kind, params in [JOBS["pvf"], JOBS["adaptive-pvf"],
                             ("pipeline", {}), JOBS["rtl-transient"],
                             JOBS["stuck-at"], JOBS["adaptive-rtl"]]:
            for jobs in (1, 2):
                with pytest.raises(ApiError, match="timeout") as caught:
                    service.submit({"kind": kind, "params": dict(
                        params, timeout=5, jobs=jobs)})
                assert caught.value.status == 400
                assert "unknown parameter" in str(caught.value)
        assert store.list_jobs() == []

    def test_normalized_params_hold_no_timeout(self):
        for kind, params in [*JOBS.values(), ("pipeline", {})]:
            assert "timeout" not in normalize_params(kind, params)

    @pytest.mark.parametrize("name", ["pvf", "stuck-at"])
    def test_a_stored_timeout_is_ignored(self, name):
        # a job stored by an older daemon may still carry one
        kind, params = JOBS[name]
        params = normalize_params(kind, params)
        assert run_job_units(kind, dict(params, timeout=1e-6), 0, 2) == \
            run_job_units(kind, params, 0, 2)
