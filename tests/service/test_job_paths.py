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

import pytest

from repro.errors import ServiceError
from repro.service import (
    ApiError,
    CampaignService,
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
