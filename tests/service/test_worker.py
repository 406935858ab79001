"""The pull-worker protocol end to end, in-process.

A coordinator daemon (``execute_jobs=False``: it only queues, leases
and merges) is driven by :class:`CampaignWorker` instances running in
threads — the same code path ``python -m repro worker`` runs, minus the
subprocess.  The invariant under test throughout: however many workers
share a job, and however many leases expire along the way, the merged
report is bit-identical to the direct synchronous run.
"""

import json
import logging
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    CampaignWorker,
    ServiceClient,
    ServiceDaemon,
)


@pytest.fixture
def daemon(tmp_path):
    with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=0.05,
                       execute_jobs=False) as daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    return ServiceClient(daemon.url, timeout=30.0)


def _direct_pvf(app="MxM", injections=20, seed=5, batch_size=5):
    from repro.apps import make_application
    from repro.swfi.campaign import run_pvf_campaign
    from repro.swfi.models import SingleBitFlip

    return run_pvf_campaign(make_application(app, seed=seed),
                            SingleBitFlip(), injections, seed=seed,
                            batch_size=batch_size)


class TestWorkerFleet:
    def test_two_workers_share_one_pvf_job_bit_identically(
            self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=20, seed=5,
                            batch_size=5, units_per_claim=1)
        workers = [CampaignWorker(daemon.url, name=f"w{i}",
                                  lease_seconds=60, poll_interval=0.05)
                   for i in range(2)]
        import threading
        threads = [threading.Thread(target=w.run_forever,
                                    kwargs={"drain": True})
                   for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        body, _ = client.artifact(job["id"], "report")
        assert json.loads(body)["report"] == _direct_pvf().to_dict()
        # both workers actually shared the job (4 units, shard size 1)
        tallies = {w["id"]: w["jobs_claimed"] for w in client.workers()}
        assert sum(tallies.values()) == 4
        assert set(tallies) == {"w0", "w1"}

    def test_rtl_job_through_a_worker_matches_direct_run(
            self, daemon, client):
        from repro.gpu import Opcode
        from repro.rtl import make_microbenchmark, run_campaign

        job = client.submit("rtl", opcode="FADD", module="fp32",
                            range="M", faults=30, seed=3, batch_size=10)
        worker = CampaignWorker(daemon.url, name="solo",
                                lease_seconds=60, poll_interval=0.05)
        worker.run_forever(drain=True)
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        body, _ = client.artifact(job["id"], "report")
        direct = run_campaign(
            make_microbenchmark(Opcode("FADD"), "M", seed=3), "fp32",
            30, seed=3, batch_size=10)
        assert json.loads(body)["report"] == direct.to_dict()

    def test_expired_lease_is_reclaimed_and_resumed_bit_identically(
            self, daemon, client):
        job = client.submit("pvf", app="MxM", injections=20, seed=5,
                            batch_size=5, units_per_claim=2)
        # a worker claims the first shard, then "SIGKILLs": no
        # heartbeat, no delivery
        doomed = client.claim("doomed", lease_seconds=0.2)
        assert doomed["units"] == [0, 2]
        time.sleep(0.4)
        # the survivor picks up the whole job, expired shard included
        survivor = CampaignWorker(daemon.url, name="survivor",
                                  lease_seconds=60, poll_interval=0.05)
        survivor.run_forever(drain=True)
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == "done"
        # the dead worker's lease is observably gone
        with pytest.raises(ServiceError, match="409"):
            client.heartbeat(job["id"], "doomed")
        body, _ = client.artifact(job["id"], "report")
        assert json.loads(body)["report"] == _direct_pvf().to_dict()

    def test_late_delivery_after_lease_loss_is_rejected(self, daemon,
                                                        client):
        client.submit("pvf", app="MxM", injections=10, seed=2,
                      batch_size=5, units_per_claim=2)
        claim = client.claim("slow", lease_seconds=0.2)
        job_id = claim["job"]["id"]
        time.sleep(0.4)
        # another worker re-claims the expired shard...
        again = client.claim("fast", lease_seconds=60)
        assert again["units"] == claim["units"]
        # ...so the slow worker's stale results must be refused
        from repro.service import run_job_units

        reports = run_job_units("pvf", claim["job"]["params"], 0, 2)
        with pytest.raises(ServiceError, match="409"):
            client.post_units(job_id, "slow", 0, reports)

    def test_cooperative_cancel_reaches_workers_via_heartbeat(
            self, daemon, client):
        submitted = client.submit("pvf", app="MxM", injections=20,
                                  seed=5, batch_size=5)
        claim = client.claim("w1", lease_seconds=60)
        job_id = claim["job"]["id"]
        client.cancel(job_id)
        beat = client.heartbeat(job_id, "w1")
        assert beat["cancel_requested"] is True
        client.release_shard(job_id, "w1", claim["units"][0])
        # with no lease left, the daemon's maintenance settles the job
        done = client.wait(job_id, timeout=30)
        assert done["state"] == "cancelled"
        assert submitted["id"] == job_id

    def test_worker_error_fails_the_job(self, daemon, client):
        client.submit("pvf", app="MxM", injections=10, seed=2,
                      batch_size=5)
        claim = client.claim("w1", lease_seconds=60)
        job_id = claim["job"]["id"]
        client.fail_job(job_id, "w1", claim["units"][0],
                        "GPU caught fire")
        job = client.job(job_id)
        assert job["state"] == "failed"
        assert "GPU caught fire" in job["error"]
        assert "w1" in job["error"]

    def test_claim_priority_order_over_http(self, daemon, client):
        client.submit("pvf", app="MxM", injections=10, seed=1,
                      batch_size=5)
        urgent = client.submit("pvf", app="MxM", injections=10, seed=2,
                               batch_size=5, priority=7)
        claim = client.claim("w1", lease_seconds=60)
        assert claim["job"]["id"] == urgent["id"]
        assert claim["job"]["priority"] == 7

    def test_claim_empty_queue_returns_none(self, client):
        assert client.claim("idle", lease_seconds=30) is None

    def test_workers_endpoint_reports_liveness(self, daemon, client):
        client.submit("pvf", app="MxM", injections=10, seed=1,
                      batch_size=5)
        client.claim("w1", lease_seconds=60)
        (row,) = client.workers()
        assert row["id"] == "w1"
        assert row["alive"] is True
        assert row["jobs_claimed"] == 1


class TestBackpressure:
    def test_saturated_queue_answers_429(self, tmp_path):
        with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=5,
                           execute_jobs=False,
                           max_queue_depth=1) as daemon:
            client = ServiceClient(daemon.url, timeout=30)
            client.submit("pvf", app="MxM", injections=5)
            with pytest.raises(ServiceError, match="429"):
                client.submit("pvf", app="MxM", injections=5)
            health = client.health()
            assert health["queue_depth"] == 1
            assert health["max_queue_depth"] == 1

    def test_priority_must_be_an_integer(self, tmp_path):
        with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=5,
                           execute_jobs=False) as daemon:
            client = ServiceClient(daemon.url, timeout=30)
            with pytest.raises(ServiceError, match="400"):
                client.submit("pvf", app="MxM", injections=5,
                              priority="high")


class TestEvents:
    def test_executing_daemon_logs_its_local_workers_events(
            self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        with ServiceDaemon(tmp_path / "svc", port=0,
                           poll_interval=0.05) as daemon:
            client = ServiceClient(daemon.url, timeout=30)
            job = client.submit("pvf", app="MxM", injections=10, seed=5,
                                batch_size=5, units_per_claim=2)
            assert client.wait(job["id"], timeout=120)["state"] == "done"

        def events(logger):
            return [record.getMessage() for record in caplog.records
                    if record.name == logger
                    and record.levelno == logging.INFO]

        worker = events("repro.service.worker")
        assert f"[worker local] claimed job {job['id']} units [0, 2)" \
            in worker
        assert any(line.startswith(f"[worker local] delivered job "
                                   f"{job['id']} units [0, 2) (job state: ")
                   for line in worker), worker
        # the HTTP access log is an event stream of its own
        assert any('"POST /claim HTTP/1.1" 200' in line
                   for line in events("repro.service.api"))

    def test_idle_claim_polls_leave_no_access_line(self, tmp_path, caplog,
                                                   monkeypatch):
        # an idle worker polls twice a second; only claims that hand
        # out work, and every other request, keep their access line
        caplog.set_level(logging.INFO, logger="repro")
        with ServiceDaemon(tmp_path / "svc", port=0) as daemon:
            empty = []
            claim = daemon.service.claim

            def counted(payload):
                claimed = claim(payload)
                if claimed is None:
                    empty.append(payload["worker"])
                return claimed

            monkeypatch.setattr(daemon.service, "claim", counted)
            deadline = time.monotonic() + 30
            while len(empty) < 4 and time.monotonic() < deadline:
                time.sleep(0.1)
            assert len(empty) >= 4
            client = ServiceClient(daemon.url, timeout=30)
            job = client.submit("pvf", app="MxM", injections=4, seed=5)
            assert client.wait(job["id"], timeout=120)["state"] == "done"

        access = [record.getMessage() for record in caplog.records
                  if record.name == "repro.service.api"]
        assert not any('"POST /claim HTTP/1.1" 204' in line
                       for line in access), access
        assert any('"POST /claim HTTP/1.1" 200' in line for line in access)
        assert any(f'"POST /jobs/{job["id"]}/units HTTP/1.1" 200' in line
                   for line in access), access
