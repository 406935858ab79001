"""Regression tests for the service race/robustness fixes.

Each class pins one bug:

* ``TestCancelFinishRace`` — ``request_cancel`` checked the terminal
  state outside its transaction, so a job finishing concurrently could
  be stamped ``cancel_requested`` after the fact (silent no-op instead
  of a 409).
* ``TestSchedulerSurvivesStoreErrors`` — a transient
  ``sqlite3.OperationalError`` (WAL lock contention) killed the
  scheduler thread; the daemon kept serving HTTP but never ran another
  pipeline or maintenance pass.
* ``TestBudgetClassification`` — budget exhaustion surfaced as
  ``CampaignCancelled`` and landed jobs in ``cancelled`` instead of
  ``failed``.
* ``TestTornTelemetry`` — a half-written ``metrics.json`` 500'd
  ``GET /jobs/<id>``; writes now go through ``os.replace`` and reads
  degrade to "no telemetry".
* ``TestHealthStaysCheap`` — ``/health`` loaded every job row (params
  and result blobs included) just to count states.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.errors import BudgetExceeded, ServiceError
from repro.service import (
    CampaignService,
    JobStore,
    Scheduler,
    ServiceDaemon,
)


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


class TestCancelFinishRace:
    def test_cancel_after_finish_raises(self, store):
        store.submit("pipeline", {})
        job = store.claim_next()
        store.finish(job.id, "done", result={})
        with pytest.raises(ServiceError, match="already done"):
            store.request_cancel(job.id)
        assert store.get(job.id).cancel_requested is False

    def test_finish_after_finish_raises(self, store):
        store.submit("pipeline", {})
        job = store.claim_next()
        store.finish(job.id, "done", result={})
        with pytest.raises(ServiceError, match="already done"):
            store.finish(job.id, "cancelled")

    def test_cancel_losing_the_race_to_finish_gets_refused(self, store):
        """Force the exact TOCTOU interleaving and demand the 409.

        The job finishes (via a second connection) in the instant
        between ``request_cancel`` being called and its write
        transaction starting.  Pre-fix, the terminal-state check had
        already passed outside the transaction, so the flag was
        silently stamped onto the done row; post-fix the check runs
        inside ``BEGIN IMMEDIATE`` and refuses.
        """
        from contextlib import contextmanager

        rival = JobStore(store.path)
        store.submit("pipeline", {})
        job = store.claim_next()
        real_connect = store._connect

        class FinishOnBegin:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql.startswith("BEGIN"):
                    store._connect = real_connect  # fire once
                    rival.finish(job.id, "done", result={})
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        @contextmanager
        def racing_connect():
            with real_connect() as conn:
                yield FinishOnBegin(conn)

        store._connect = racing_connect
        with pytest.raises(ServiceError, match="already done"):
            store.request_cancel(job.id)
        fresh = store.get(job.id)
        assert fresh.state == "done"
        assert fresh.cancel_requested is False

    def test_threaded_cancel_vs_finish_always_gives_a_definite_answer(
            self, store):
        """Under a live race, every refused cancel names a settled job.

        A refusal must mean the job really was terminal and unflagged —
        never a silent no-op that leaves the caller believing the
        cancellation took.
        """
        jobs = []
        for _ in range(24):
            store.submit("pipeline", {})
            jobs.append(store.claim_next().id)
        barrier = threading.Barrier(2)
        refused, lock = [], threading.Lock()

        def finisher():
            barrier.wait()
            for job_id in jobs:
                try:
                    store.finish(job_id, "done", result={})
                except ServiceError:
                    pass  # the cancel side settled it first

        def canceller():
            barrier.wait()
            for job_id in jobs:
                try:
                    store.request_cancel(job_id)
                except ServiceError:
                    with lock:
                        refused.append(job_id)

        threads = [threading.Thread(target=finisher),
                   threading.Thread(target=canceller)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for job_id in refused:
            job = store.get(job_id)
            assert job.state == "done"
            assert job.cancel_requested is False


class TestSchedulerSurvivesStoreErrors:
    def test_run_forever_outlives_transient_lock_errors(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        scheduler = Scheduler(store, tmp_path, poll_interval=0.01)
        real_maintain = scheduler.maintain
        calls = {"failures": 0}

        def flaky_maintain():
            if calls["failures"] < 3:
                calls["failures"] += 1
                raise sqlite3.OperationalError("database is locked")
            real_maintain()

        scheduler.maintain = flaky_maintain
        store.submit("pipeline", _tiny_pipeline_params())
        stop = threading.Event()
        thread = threading.Thread(target=scheduler.run_forever,
                                  args=(stop,), daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if store.get(1).state == "done":
                    break
                time.sleep(0.05)
            else:
                pytest.fail("scheduler never recovered from the "
                            "transient store error")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert calls["failures"] == 3
        assert store.get(1).state == "done"


def _tiny_pipeline_params(**extra) -> dict:
    from repro.service import normalize_params

    return normalize_params("pipeline", {
        "apps": ["MxM"], "models": ["bitflip"], "opcodes": ["FADD"],
        "grid_faults": 4, "tmxm_faults": 4, "injections": 4, **extra})


def _tiny_pvf_params() -> dict:
    from repro.service import normalize_params

    return normalize_params("pvf", {"app": "MxM", "injections": 6,
                                    "batch_size": 3, "seed": 1})


class TestBudgetClassification:
    def test_budget_exceeded_is_a_service_error(self):
        assert issubclass(BudgetExceeded, ServiceError)

    def test_blown_budget_lands_failed_not_cancelled(self, store,
                                                     tmp_path):
        # a pipeline's budget is checked on the scheduler thread...
        store.submit("pipeline", _tiny_pipeline_params(budget=1e-6))
        job = Scheduler(store, tmp_path).run_once()
        assert job.state == "failed"
        assert "budget" in job.error
        assert "requeue" in job.error

        # ...a pvf job's by the reaper, while the local worker runs it
        from repro.service import ServiceClient

        with ServiceDaemon(tmp_path / "svc", port=0,
                           poll_interval=0.05) as daemon:
            client = ServiceClient(daemon.url, timeout=30)
            job = client.wait(client.submit(
                "pvf", app="MxM", injections=40, batch_size=2,
                budget=1e-6)["id"], timeout=60)
        assert job["state"] == "failed"
        assert "budget" in job["error"]
        assert "requeue" in job["error"]

    def test_user_cancel_still_raises_cancelled_not_budget(self, store,
                                                           tmp_path):
        from repro.errors import CampaignCancelled
        from repro.service import execute_job

        store.submit("pipeline", _tiny_pipeline_params(budget=600))
        running = store.claim_next()
        store.request_cancel(running.id)  # stops at the first unit
        scheduler = Scheduler(store, tmp_path)
        with pytest.raises(CampaignCancelled):
            execute_job(running, scheduler.jobdir(running.id),
                        store=store)


class TestTornTelemetry:
    def test_metrics_save_is_atomic(self, tmp_path):
        from repro.campaign.telemetry import CampaignMetrics

        metrics = CampaignMetrics("stage")
        metrics.record_unit(0, label="u0", size=1)
        path = tmp_path / "metrics.json"
        metrics.save(path)
        assert json.loads(path.read_text())["kind"] == "campaign-metrics"
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == [], "temp file leaked by save()"

    def test_torn_metrics_degrade_to_no_telemetry(self, store, tmp_path):
        scheduler = Scheduler(store, tmp_path)
        service = CampaignService(store, scheduler)
        job = store.submit("pvf", _tiny_pvf_params())
        jobdir = scheduler.jobdir(job.id)
        jobdir.mkdir(parents=True)
        # a torn write: valid prefix of a real payload, cut mid-token
        (jobdir / "metrics.json").write_text(
            '{"kind": "campaign-metrics", "version": 1, "uni')
        payload = service.job(job.id)
        assert payload["telemetry"] is None

    def test_torn_metrics_never_500_over_http(self, tmp_path):
        with ServiceDaemon(tmp_path / "svc", port=0, poll_interval=5,
                           execute_jobs=False) as daemon:
            from repro.service import ServiceClient

            client = ServiceClient(daemon.url, timeout=30)
            job = client.submit("pvf", app="MxM", injections=6,
                                batch_size=3)
            jobdir = daemon.scheduler.jobdir(job["id"])
            jobdir.mkdir(parents=True)
            (jobdir / "metrics.json").write_text('{"kind": "campa')
            assert client.job(job["id"])["telemetry"] is None


class TestHealthStaysCheap:
    def test_health_never_loads_job_rows(self, store, tmp_path):
        for _ in range(5):
            store.submit("pipeline", {})
        store.claim_next()
        scheduler = Scheduler(store, tmp_path)
        service = CampaignService(store, scheduler, max_queue_depth=10)

        def forbidden(*args, **kwargs):
            raise AssertionError("/health must not list job rows")

        store.list_jobs = forbidden
        health = service.health()
        assert health["jobs"]["queued"] == 4
        assert health["jobs"]["running"] == 1
        assert health["queue_depth"] == 4
        assert health["max_queue_depth"] == 10
        assert health["workers"] == {"known": 0, "alive": 0}

    def test_count_states_matches_list_jobs(self, store):
        for _ in range(3):
            store.submit("pipeline", {})
        job = store.claim_next()
        store.finish(job.id, "failed", error="x")
        counts = store.count_states()
        assert counts == {"queued": 2, "running": 0, "done": 0,
                          "failed": 1, "cancelled": 0}
