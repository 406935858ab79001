"""HTTP API over a live daemon, plus transport-free service semantics."""

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
    content_etag,
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("service")
    with ServiceDaemon(workdir, port=0, poll_interval=0.05) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def client(daemon):
    return ServiceClient(daemon.url, timeout=30.0)


class TestHttpApi:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done",
                                       "failed", "cancelled"}

    def test_submit_run_fetch_roundtrip(self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=20, seed=7,
                            batch_size=10)
        assert job["state"] == "queued"
        assert job["params"]["app"] == "MxM"
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        assert done["result"]["n_injections"] == 20

        # the single-job view carries live telemetry summaries
        record = client.job(job["id"])
        assert record["telemetry"], "expected stage metrics"
        assert record["telemetry"][0]["kind"] == "campaign-metrics"
        assert all("units" not in stage for stage in record["telemetry"])

        # and shows up in the listing
        listed = client.jobs(state="done")
        assert job["id"] in [j["id"] for j in listed]

    def test_report_artifact_is_bit_identical_to_direct_run(
            self, daemon, client):
        from repro.apps import make_application
        from repro.swfi.campaign import run_pvf_campaign
        from repro.swfi.models import SingleBitFlip

        job = client.submit("pvf", app="MxM", injections=30, seed=5,
                            batch_size=10)
        client.wait(job["id"], timeout=120)
        body, etag = client.artifact(job["id"], "report")
        direct = run_pvf_campaign(
            make_application("MxM", seed=5), SingleBitFlip(), 30,
            seed=5, batch_size=10)
        assert json.loads(body)["report"] == direct.to_dict()

        # ETag revalidation: unchanged artifact is not re-downloaded
        assert etag == content_etag(body)
        again, same_etag = client.artifact(job["id"], "report", etag=etag)
        assert again is None
        assert same_etag == etag

    def test_artifact_responses_announce_their_schema(self, daemon,
                                                      client):
        from urllib.request import urlopen

        job = client.submit("pvf", app="MxM", injections=10, seed=3,
                            batch_size=5)
        client.wait(job["id"], timeout=120)
        with urlopen(f"{daemon.url}/artifacts/{job['id']}/report",
                     timeout=30) as response:
            assert response.headers["X-Artifact-Schema"] == "pvf-report"
            assert response.headers["X-Artifact-Version"] == "1"
        with urlopen(f"{daemon.url}/artifacts/{job['id']}/metrics",
                     timeout=30) as response:
            assert (response.headers["X-Artifact-Schema"]
                    == "campaign-metrics")
            assert response.headers["X-Artifact-Version"] == "1"

    def test_metrics_artifact_has_per_unit_rows(self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=20, seed=9,
                            batch_size=10)
        client.wait(job["id"], timeout=120)
        body, _ = client.artifact(job["id"], "metrics")
        payload = json.loads(body)
        assert payload["kind"] == "campaign-metrics"
        assert len(payload["units"]) == 2

    def test_submit_validation_is_a_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.submit("pvf", app="nosuch")
        with pytest.raises(ServiceError, match="400"):
            client.submit("fuzz")

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.job(9999)
        with pytest.raises(ServiceError, match="404"):
            client.artifact(9999, "report")

    def test_unknown_artifact_and_endpoint_are_404(self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=10)
        client.wait(job["id"], timeout=120)
        with pytest.raises(ServiceError, match="unknown artifact"):
            client.artifact(job["id"], "coredump")
        # a pvf job distils no syndrome database
        with pytest.raises(ServiceError, match="404"):
            client.artifact(job["id"], "syndromes")
        with pytest.raises(ServiceError, match="no such endpoint"):
            client._json("GET", "/nope")

    def test_cancel_done_job_is_a_409(self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=10)
        client.wait(job["id"], timeout=120)
        with pytest.raises(ServiceError, match="409"):
            client.cancel(job["id"])

    def test_service_json_records_bound_address(self, daemon):
        payload = json.loads(
            (daemon.workdir / "service.json").read_text())
        assert payload["url"] == daemon.url
        assert payload["port"] == daemon.address[1]


class TestServiceSemantics:
    """Transport-free checks against CampaignService (no scheduler loop),
    so queued-state transitions can't race a running daemon."""

    @pytest.fixture
    def service(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        return CampaignService(store, Scheduler(store, tmp_path))

    def test_cancel_queued_job_is_immediate(self, service):
        job = service.submit({"kind": "pvf", "params": {"app": "MxM"}})
        cancelled = service.cancel(job["id"])
        assert cancelled["state"] == "cancelled"

    def test_requeue_after_cancel(self, service):
        job = service.submit({"kind": "pvf", "params": {"app": "MxM"}})
        service.cancel(job["id"])
        requeued = service.requeue(job["id"])
        assert requeued["state"] == "queued"

    def test_requeue_queued_job_is_a_409(self, service):
        job = service.submit({"kind": "pvf", "params": {"app": "MxM"}})
        with pytest.raises(ApiError) as excinfo:
            service.requeue(job["id"])
        assert excinfo.value.status == 409

    def test_submit_rejects_non_object_body(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.submit(["not", "a", "dict"])
        assert excinfo.value.status == 400

    def test_artifact_before_completion_is_a_404(self, service):
        job = service.submit({"kind": "pvf", "params": {"app": "MxM"}})
        with pytest.raises(ApiError) as excinfo:
            service.artifact(job["id"], "report")
        assert excinfo.value.status == 404
        assert "state: queued" in str(excinfo.value)
