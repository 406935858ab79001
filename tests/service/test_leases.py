"""Lease-based multi-worker claiming: leases, shards, reaping, registry."""

import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import JobStore


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


def quarters(total):
    """A plan callable sharding every job into *total* units of one."""
    def plan(job):
        if job.kind == "pipeline":
            return None
        return total, 1
    return plan


class TestJobLeases:
    def test_in_process_claim_has_no_lease(self, store):
        # a pipeline is claimed whole and never leased
        store.submit("pipeline", {})
        job = store.claim_next()
        assert job.worker is None
        assert job.lease_expires_at is None

    def test_priority_order_then_fifo(self, store):
        store.submit("pvf", {"tag": "low"})
        store.submit("pvf", {"tag": "high"}, priority=5)
        store.submit("pvf", {"tag": "high2"}, priority=5)
        order = [store.claim_shard("w1", 30.0, quarters(1))[0]
                 .params["tag"] for _ in range(3)]
        assert order == ["high", "high2", "low"]

    def test_heartbeat_by_stranger_raises(self, store):
        store.submit("pvf", {})
        job, _ = store.claim_shard("w1", 30.0, quarters(1))
        with pytest.raises(ServiceError, match="holds no lease"):
            store.heartbeat(job.id, "w2", 30.0)

    def test_heartbeat_carries_cancel_flag(self, store):
        store.submit("pvf", {})
        job, _ = store.claim_shard("w1", 30.0, quarters(1))
        store.request_cancel(job.id)
        assert store.heartbeat(job.id, "w1", 30.0).cancel_requested


class TestReaping:
    def test_live_lease_is_left_alone(self, store):
        store.submit("pvf", {})
        job, _ = store.claim_shard("w1", 300.0, quarters(1))
        assert store.reap() == {"shards": [], "cancelled": [],
                                "failed": []}
        assert store.get(job.id).state == "running"
        assert store.shards(job.id)[0]["state"] == "leased"

    def test_expired_lease_with_cancel_lands_cancelled(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("dead", 30.0, quarters(1))
        store.request_cancel(job.id)
        reaped = store.reap(now=time.time() + 60)
        assert reaped["shards"] == [(job.id, lo)]
        assert reaped["cancelled"] == [job.id]
        assert store.get(job.id).state == "cancelled"

    def test_heartbeat_after_reap_raises(self, store):
        store.submit("pvf", {})
        job, _ = store.claim_shard("dead", 30.0, quarters(1))
        store.reap(now=time.time() + 60)
        with pytest.raises(ServiceError, match="holds no lease"):
            store.heartbeat(job.id, "dead", 30.0)

    def test_recover_leaves_leased_jobs_to_the_reaper(self, store):
        remote = store.submit("pvf", {})
        store.claim_shard("remote", 300.0, quarters(1))
        local = store.submit("pvf", {})
        store.claim_shard("local", 300.0, quarters(1))
        idle = store.submit("pvf", {})
        _, (lo, _) = store.claim_shard("remote", 300.0, quarters(1))
        store.complete_shard(idle.id, lo, "remote")  # done, unmerged
        pipeline = store.submit("pipeline", {})
        store.claim_next()
        # the restarted daemon's own worker lost its lease; every job
        # no worker holds goes back to the queue
        recovered = store.recover("local")
        assert sorted(j.id for j in recovered) == [local.id, idle.id,
                                                   pipeline.id]
        assert store.get(remote.id).state == "running"
        assert store.shards(remote.id)[0]["state"] == "leased"
        assert store.shards(local.id)[0]["state"] == "queued"
        assert store.get(local.id).state == "queued"


class TestShardClaiming:
    def test_first_claim_shards_the_job(self, store):
        job = store.submit("pvf", {})
        claimed = store.claim_shard("w1", 30.0, quarters(3))
        assert claimed is not None
        fresh, (lo, hi) = claimed
        assert fresh.id == job.id
        assert fresh.state == "running"
        assert (lo, hi) == (0, 1)
        states = [s["state"] for s in store.shards(job.id)]
        assert states == ["leased", "queued", "queued"]

    def test_claims_prefer_the_in_flight_job(self, store):
        first = store.submit("pvf", {})
        store.claim_shard("w1", 30.0, quarters(2))
        store.submit("pvf", {}, priority=9)
        # the second claim continues job 1 despite job 2's priority
        job, (lo, _) = store.claim_shard("w2", 30.0, quarters(2))
        assert (job.id, lo) == (first.id, 1)

    def test_unshardable_jobs_are_skipped(self, store):
        store.submit("pipeline", {})
        shardable = store.submit("pvf", {})
        job, _ = store.claim_shard("w1", 30.0, quarters(1))
        assert job.id == shardable.id

    def test_empty_queue_returns_none(self, store):
        assert store.claim_shard("w1", 30.0, quarters(4)) is None

    def test_complete_shard_reports_the_last_one(self, store):
        store.submit("pvf", {})
        job, (lo0, _) = store.claim_shard("w1", 30.0, quarters(2))
        _, (lo1, _) = store.claim_shard("w1", 30.0, quarters(2))
        assert store.complete_shard(job.id, lo0, "w1", units=1) is False
        assert store.complete_shard(job.id, lo1, "w1", units=1) is True

    def test_complete_by_stranger_raises(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        with pytest.raises(ServiceError, match="no longer holds"):
            store.complete_shard(job.id, lo, "w2")

    def test_expired_shard_lease_is_reclaimed_by_next_claim(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("dead", 0.05, quarters(1))
        time.sleep(0.1)
        # claim_shard reaps inline: the dead worker's shard is handed out
        again, (lo2, _) = store.claim_shard("alive", 30.0, quarters(1))
        assert (again.id, lo2) == (job.id, lo)
        # the dead worker's late completion is refused
        with pytest.raises(ServiceError, match="no longer holds"):
            store.complete_shard(job.id, lo, "dead")

    def test_release_requeues_the_shard(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        store.release_shard(job.id, lo, "w1")
        assert store.shards(job.id)[0]["state"] == "queued"
        with pytest.raises(ServiceError, match="holds no lease"):
            store.release_shard(job.id, lo, "w1")

    def test_shard_heartbeat_renews_shard_lease(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        before = store.shards(job.id)[0]["lease_expires_at"]
        store.heartbeat(job.id, "w1", 600.0)
        assert store.shards(job.id)[0]["lease_expires_at"] > before

    def test_requeue_preserves_done_shards(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(2))
        store.complete_shard(job.id, lo, "w1", units=1)
        store.finish(job.id, "failed", error="boom")
        store.requeue(job.id)
        states = [s["state"] for s in store.shards(job.id)]
        assert states == ["done", "queued"]
        # re-claiming hands out only the unfinished range
        _, (lo2, _) = store.claim_shard("w2", 30.0, quarters(2))
        assert lo2 == 1

    def test_a_requeued_job_awaiting_its_merge_does_not_block_claims(
            self, store):
        done = store.submit("pvf", {})
        _, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        store.complete_shard(done.id, lo, "w1")
        store.finish(done.id, "failed", error="boom")
        store.requeue(done.id)  # every shard done, the merge still due
        waiting = store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w2", 30.0, quarters(1))
        assert (job.id, lo) == (waiting.id, 0)
        assert store.get(done.id).state == "running"
        assert store.sharded_jobs_ready() == [done.id]

    def test_sharded_jobs_ready(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        assert store.sharded_jobs_ready() == []
        store.complete_shard(job.id, lo, "w1")
        assert store.sharded_jobs_ready() == [job.id]

    def test_concurrent_claims_never_share_a_shard(self, store):
        store.submit("pvf", {})
        leased, lock = [], threading.Lock()

        def worker(name):
            while True:
                claimed = store.claim_shard(name, 300.0, quarters(16))
                if claimed is None:
                    return
                job, units = claimed
                with lock:
                    leased.append((job.id, units[0]))

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(leased) == 16
        assert len(set(leased)) == 16


class TestWorkerRegistry:
    def test_claims_and_units_are_tallied(self, store):
        store.submit("pvf", {})
        job, (lo, _) = store.claim_shard("w1", 30.0, quarters(1))
        store.complete_shard(job.id, lo, "w1", units=5)
        (row,) = store.list_workers()
        assert row["id"] == "w1"
        assert row["jobs_claimed"] == 1
        assert row["units_done"] == 5
        assert row["alive"] is True

    def test_silent_worker_goes_stale(self, store):
        store.submit("pvf", {})
        store.claim_shard("w1", 30.0, quarters(1))
        (row,) = store.list_workers(alive_within=60.0,
                                    now=time.time() + 3600)
        assert row["alive"] is False
