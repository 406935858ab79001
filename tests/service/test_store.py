"""Durable job store: lifecycle, atomic claiming, crash recovery.

:meth:`JobStore.claim_next` hands out whole pipeline jobs only, so the
lifecycle tests below run on pipeline rows.
"""

import threading

import pytest

from repro.errors import ServiceError
from repro.service import JobStore


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


class TestSubmitAndLookup:
    def test_submit_roundtrip(self, store):
        job = store.submit("pvf", {"app": "MxM", "injections": 5})
        assert job.id == 1
        assert job.state == "queued"
        assert job.attempts == 0
        fetched = store.get(job.id)
        assert fetched.params == {"app": "MxM", "injections": 5}
        assert fetched.submitted_at > 0

    def test_get_unknown_raises(self, store):
        with pytest.raises(ServiceError, match="no such job"):
            store.get(99)

    def test_list_filters_by_state(self, store):
        store.submit("pipeline", {})
        running = store.claim_next()
        store.submit("rtl", {})
        assert [j.kind for j in store.list_jobs()] == ["pipeline", "rtl"]
        assert [j.id for j in store.list_jobs("queued")] == [2]
        assert [j.id for j in store.list_jobs("running")] == [running.id]

    def test_list_rejects_unknown_state(self, store):
        with pytest.raises(ServiceError, match="unknown job state"):
            store.list_jobs("paused")

    def test_persists_across_reopen(self, store, tmp_path):
        store.submit("pvf", {"seed": 3})
        reopened = JobStore(tmp_path / "jobs.sqlite3")
        assert reopened.get(1).params == {"seed": 3}

    def test_the_write_ahead_log_outlives_each_call(self, store, tmp_path):
        # closing the last connection to a WAL database checkpoints and
        # deletes the log, with fsyncs: the store's idle connection keeps
        # that cost off every call
        store.submit("pvf", {})
        assert (tmp_path / "jobs.sqlite3-wal").exists()

    def test_to_dict_is_json_ready(self, store):
        payload = store.submit("pvf", {"seed": 1}).to_dict()
        assert payload["state"] == "queued"
        assert payload["result"] is None
        assert payload["cancel_requested"] is False


class TestClaiming:
    def test_claims_oldest_queued_first(self, store):
        store.submit("pipeline", {})
        store.submit("rtl", {})  # workers claim it, in shards
        store.submit("pipeline", {})
        first = store.claim_next()
        second = store.claim_next()
        assert (first.id, second.id) == (1, 3)
        assert store.claim_next() is None
        assert first.state == "running"
        assert first.attempts == 1
        assert first.started_at is not None

    def test_claim_empty_queue_returns_none(self, store):
        assert store.claim_next() is None

    def test_concurrent_claims_never_share_a_job(self, store):
        for _ in range(12):
            store.submit("pipeline", {})
        claimed, lock = [], threading.Lock()

        def worker():
            while True:
                job = store.claim_next()
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == list(range(1, 13))  # each exactly once


class TestFinish:
    def test_finish_stores_result(self, store):
        store.submit("pipeline", {})
        store.claim_next()
        done = store.finish(1, "done", result={"pvf": 0.5})
        assert done.state == "done"
        assert done.result == {"pvf": 0.5}
        assert done.finished_at is not None

    def test_finish_stores_error(self, store):
        store.submit("pipeline", {})
        store.claim_next()
        failed = store.finish(1, "failed", error="boom")
        assert failed.state == "failed"
        assert failed.error == "boom"

    def test_finish_requires_terminal_state(self, store):
        store.submit("pipeline", {})
        with pytest.raises(ServiceError, match="terminal state"):
            store.finish(1, "queued")


class TestRecovery:
    def test_recover_requeues_running_jobs(self, store):
        store.submit("pipeline", {})
        store.submit("pipeline", {})
        store.claim_next()
        recovered = store.recover()
        assert [j.id for j in recovered] == [1]
        job = store.get(1)
        assert job.state == "queued"
        assert job.started_at is None
        assert job.attempts == 1  # the interrupted attempt still counts
        assert store.get(2).state == "queued"  # untouched

    def test_recover_honours_pending_cancellation(self, store):
        store.submit("pipeline", {})
        store.claim_next()
        store.request_cancel(1)
        (job,) = store.recover()
        assert job.state == "cancelled"
        assert "daemon was down" in job.error

    def test_recover_with_nothing_running_is_a_noop(self, store):
        store.submit("pipeline", {})
        assert store.recover() == []


class TestCancellation:
    def test_cancel_queued_is_immediate(self, store):
        store.submit("pipeline", {})
        job = store.request_cancel(1)
        assert job.state == "cancelled"
        assert job.error == "cancelled before start"

    def test_cancel_running_only_sets_the_flag(self, store):
        store.submit("pipeline", {})
        store.claim_next()
        job = store.request_cancel(1)
        assert job.state == "running"  # executor stops cooperatively
        assert job.cancel_requested is True
        assert store.cancel_requested(1) is True

    def test_cancel_terminal_raises(self, store):
        store.submit("pipeline", {})
        store.claim_next()
        store.finish(1, "done")
        with pytest.raises(ServiceError, match="already done"):
            store.request_cancel(1)

    def test_requeue_resets_cancelled_job(self, store):
        store.submit("pipeline", {})
        store.request_cancel(1)
        job = store.requeue(1)
        assert job.state == "queued"
        assert job.cancel_requested is False
        assert job.error is None

    def test_requeue_rejects_active_jobs(self, store):
        store.submit("pipeline", {})
        with pytest.raises(ServiceError, match="only failed/cancelled"):
            store.requeue(1)
