"""Durable SQLite-backed queue of campaign jobs (multi-worker capable).

The store is the service's single source of truth: every submitted
campaign (RTL cell, SWFI PVF, full pipeline) is one row whose lifecycle
walks ``queued -> running -> done | failed | cancelled``.  SQLite gives
the properties a long-lived injection fleet needs with zero
dependencies:

* **Durability** — the daemon can be SIGKILLed at any instant; on
  restart :meth:`JobStore.recover` releases the daemon's own worker's
  shard leases and re-queues every job no worker still holds, and the
  job's campaign journal makes the re-run resume instead of restart.
* **Atomic claiming** — :meth:`JobStore.claim_shard` (pvf/rtl unit
  shards, for workers) and :meth:`JobStore.claim_next` (whole pipeline
  jobs, for the daemon's scheduler) flip work to a claimant inside a
  ``BEGIN IMMEDIATE`` transaction, so any number of claimants draining
  one store never execute the same work twice.
* **Leases, not locks** — a shard claim carries a lease
  (``lease_expires_at``); the worker renews it via :meth:`heartbeat`
  between work units.  A SIGKILLed worker simply stops renewing:
  :meth:`reap` notices the expiry and puts the shard back in the queue
  for a surviving worker.
* **Unit shards** — pvf/rtl jobs are claimed at sub-job granularity:
  contiguous ranges of the engine's seed-indexed work units (the
  ``shards`` table), so several machines execute one job concurrently
  and the daemon merges their partial reports in unit order —
  bit-identical to a single-process run.

Every public method opens its own connection, so one :class:`JobStore`
can be shared freely between the HTTP handler threads and the scheduler
loop; one idle connection held for the store's lifetime keeps SQLite
from checkpointing and deleting the WAL each time a call's connection
closes.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import BudgetExceeded, ServiceError

__all__ = ["Job", "JobStore", "JOB_STATES", "SHARD_STATES",
           "TERMINAL_STATES"]

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves (except via an explicit :meth:`requeue`).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Lifecycle of one claimable unit range of a sharded job.
SHARD_STATES = ("queued", "leased", "done")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    params TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    submitted_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    result TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, id);
CREATE TABLE IF NOT EXISTS shards (
    job_id INTEGER NOT NULL,
    lo INTEGER NOT NULL,
    hi INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    worker TEXT,
    lease_expires_at REAL,
    PRIMARY KEY (job_id, lo)
);
CREATE INDEX IF NOT EXISTS shards_state ON shards (state, job_id, lo);
CREATE TABLE IF NOT EXISTS workers (
    id TEXT PRIMARY KEY,
    first_seen REAL NOT NULL,
    last_seen REAL NOT NULL,
    jobs_claimed INTEGER NOT NULL DEFAULT 0,
    units_done INTEGER NOT NULL DEFAULT 0
);
"""

#: Columns added after the first release; applied by ``ALTER TABLE`` on
#: open so a pre-lease store file keeps working unchanged.
_JOB_MIGRATIONS = (
    ("priority", "INTEGER NOT NULL DEFAULT 0"),
    ("worker", "TEXT"),
    ("lease_expires_at", "REAL"),
)


@dataclass
class Job:
    """One campaign job as stored (and served over the HTTP API)."""

    id: int
    kind: str
    params: Dict = field(default_factory=dict)
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    cancel_requested: bool = False
    error: Optional[str] = None
    result: Optional[Dict] = None
    priority: int = 0
    # always None now that only shards are leased; kept so job-record
    # v2 payloads keep their shape
    worker: Optional[str] = None
    lease_expires_at: Optional[float] = None

    def to_dict(self) -> dict:
        from ..artifacts import dump_body

        return dump_body("job-record", self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        from ..artifacts import load_artifact

        return load_artifact("job-record", payload)

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "Job":
        return cls(
            id=int(row["id"]),
            kind=row["kind"],
            params=json.loads(row["params"]),
            state=row["state"],
            submitted_at=float(row["submitted_at"]),
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            attempts=int(row["attempts"]),
            cancel_requested=bool(row["cancel_requested"]),
            error=row["error"],
            result=(json.loads(row["result"])
                    if row["result"] is not None else None),
            priority=int(row["priority"]),
            worker=row["worker"],
            lease_expires_at=row["lease_expires_at"],
        )


class JobStore:
    """SQLite-backed durable job queue (thread- and process-safe)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            present = {row["name"] for row in
                       conn.execute("PRAGMA table_info(jobs)")}
            for name, spec in _JOB_MIGRATIONS:
                if name not in present:
                    conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {name} {spec}")
        # SQLite checkpoints the WAL into the database and deletes it,
        # with fsyncs, whenever the last connection closes; one idle
        # connection held for the store's lifetime (it anchors the WAL
        # only once it has read) keeps that cost off every call
        self._anchor = sqlite3.connect(self.path, timeout=30.0,
                                       check_same_thread=False)
        self._anchor.execute("SELECT 1 FROM jobs LIMIT 1").fetchall()

    def close(self) -> None:
        """Close the idle connection (calls after this still work)."""
        self._anchor.close()

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.row_factory = sqlite3.Row
            # WAL lets HTTP reads proceed while the scheduler writes
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            yield conn
            conn.commit()
        finally:
            conn.close()

    # -- submission / lookup -------------------------------------------------
    def submit(self, kind: str, params: Optional[dict] = None,
               priority: int = 0) -> Job:
        """Enqueue a job and return it (state ``queued``).

        Higher *priority* jobs are claimed first; ties go to the older
        submission.
        """
        with self._connect() as conn:
            cursor = conn.execute(
                "INSERT INTO jobs (kind, params, state, submitted_at, "
                "priority) VALUES (?, ?, 'queued', ?, ?)",
                (kind, json.dumps(params or {}), time.time(),
                 int(priority)))
            job_id = cursor.lastrowid
        return self.get(job_id)

    def get(self, job_id: int) -> Job:
        with self._connect() as conn:
            row = conn.execute("SELECT * FROM jobs WHERE id = ?",
                               (int(job_id),)).fetchone()
        if row is None:
            raise ServiceError(f"no such job: {job_id}")
        return Job._from_row(row)

    def list_jobs(self, state: Optional[str] = None) -> List[Job]:
        if state is not None and state not in JOB_STATES:
            raise ServiceError(
                f"unknown job state {state!r}; choose from {JOB_STATES}")
        query, args = "SELECT * FROM jobs", ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        with self._connect() as conn:
            rows = conn.execute(query + " ORDER BY id", args).fetchall()
        return [Job._from_row(row) for row in rows]

    def count_states(self) -> Dict[str, int]:
        """``{state: job count}`` in one aggregate query.

        Never loads a row's params/result blobs — this backs the
        ``/health`` endpoint, which is polled, so it must stay O(index)
        however many finished jobs the store accumulates.
        """
        counts = {state: 0 for state in JOB_STATES}
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs "
                "GROUP BY state").fetchall()
        for row in rows:
            if row["state"] in counts:
                counts[row["state"]] = int(row["n"])
        return counts

    # -- scheduler interface -------------------------------------------------
    def claim_next(self) -> Optional[Job]:
        """Atomically flip the best ``queued`` pipeline job to ``running``.

        "Best" is highest priority, then oldest.  Only pipeline jobs are
        claimed whole — by the daemon's scheduler thread; pvf/rtl jobs
        are claimed in shards (:meth:`claim_shard`).  The claim carries
        no lease: only :meth:`recover` (daemon restart) re-queues it.
        """
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' "
                "AND kind = 'pipeline' "
                "ORDER BY priority DESC, id LIMIT 1").fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?, "
                "attempts = attempts + 1 WHERE id = ?", (now, row["id"]))
            conn.execute("COMMIT")
            job_id = int(row["id"])
        return self.get(job_id)

    def heartbeat(self, job_id: int, worker: str,
                  lease_seconds: float) -> Job:
        """Renew every shard lease *worker* holds on a job.

        Raises :class:`ServiceError` when the worker holds none — the
        lease expired and the shard was re-queued, so the worker must
        drop its in-flight results.  Returns the fresh job row (callers
        read ``cancel_requested`` off it, which is how cooperative
        cancellation reaches workers).
        """
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute("SELECT state FROM jobs WHERE id = ?",
                               (int(job_id),)).fetchone()
            if row is None:
                raise ServiceError(f"no such job: {job_id}")
            renewed = conn.execute(
                "UPDATE shards SET lease_expires_at = ? "
                "WHERE job_id = ? AND worker = ? AND state = 'leased'",
                (now + float(lease_seconds), int(job_id),
                 worker)).rowcount
            if renewed == 0:
                raise ServiceError(
                    f"worker {worker!r} holds no lease on job {job_id} "
                    f"(state: {row['state']}); the lease expired and the "
                    f"work was re-queued")
            self._touch_worker(conn, worker, now)
            conn.execute("COMMIT")
        return self.get(job_id)

    def finish(self, job_id: int, state: str,
               result: Optional[dict] = None,
               error: Optional[str] = None) -> Job:
        """Move a running/queued job to a terminal state.

        Raises when the job is already terminal — two racing finalizers
        (say, a scheduler thread and an HTTP unit-ingest thread) cannot
        both land a result.
        """
        if state not in TERMINAL_STATES:
            raise ServiceError(
                f"finish() requires a terminal state, not {state!r}")
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute("SELECT state FROM jobs WHERE id = ?",
                               (int(job_id),)).fetchone()
            if row is None:
                raise ServiceError(f"no such job: {job_id}")
            if row["state"] in TERMINAL_STATES:
                raise ServiceError(
                    f"job {job_id} is already {row['state']}; "
                    f"cannot finish it as {state}")
            conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, error = ?, "
                "result = ? WHERE id = ?",
                (state, time.time(), error,
                 None if result is None else json.dumps(result),
                 int(job_id)))
            conn.execute("COMMIT")
        return self.get(job_id)

    def recover(self, worker: Optional[str] = None) -> List[Job]:
        """Re-queue the jobs a daemon death left with no live claimant.

        Called once at daemon startup.  Releases *worker*'s shard leases
        (the daemon's own worker, whose leases died with it), then puts
        every ``running`` job no worker holds a lease on back in the
        queue — its journal makes the re-run resume.  Other workers'
        leases are left to expiry and :meth:`reap`.  A job whose
        cancellation was requested lands in ``cancelled`` instead.
        Returns the jobs whose state changed.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            if worker is not None:
                conn.execute(
                    "UPDATE shards SET state = 'queued', worker = NULL, "
                    "lease_expires_at = NULL WHERE state = 'leased' "
                    "AND worker = ?", (worker,))
            rows = conn.execute(
                "SELECT id, cancel_requested FROM jobs "
                "WHERE state = 'running' "
                "AND NOT EXISTS (SELECT 1 FROM shards "
                "                WHERE shards.job_id = jobs.id "
                "                AND shards.state = 'leased')"
            ).fetchall()
            now = time.time()
            for row in rows:
                if row["cancel_requested"]:
                    conn.execute(
                        "UPDATE jobs SET state = 'cancelled', "
                        "finished_at = ?, error = ? WHERE id = ?",
                        (now, "cancelled while the daemon was down",
                         row["id"]))
                else:
                    conn.execute(
                        "UPDATE jobs SET state = 'queued', "
                        "started_at = NULL WHERE id = ?", (row["id"],))
            conn.execute("COMMIT")
        return [self.get(int(row["id"])) for row in rows]

    # -- lease reaping -------------------------------------------------------
    def reap(self, now: Optional[float] = None) -> Dict[str, list]:
        """Re-queue every expired shard lease; settle cancelled sharded
        jobs; fail sharded jobs past their wall-clock ``budget``.

        Returns ``{"shards": [(job_id, lo), ...], "cancelled": [...],
        "failed": [...]}`` naming what changed, so callers can log the
        takeover.  Safe to call from any thread at any time.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            summary = self._reap_locked(conn, time.time()
                                        if now is None else now)
            conn.execute("COMMIT")
        return summary

    def _reap_locked(self, conn: sqlite3.Connection,
                     now: float) -> Dict[str, list]:
        # 1. shard leases that expired: back to the shard queue
        released = [(int(r["job_id"]), int(r["lo"])) for r in conn.execute(
            "SELECT job_id, lo FROM shards WHERE state = 'leased' "
            "AND lease_expires_at < ?", (now,))]
        conn.execute(
            "UPDATE shards SET state = 'queued', worker = NULL, "
            "lease_expires_at = NULL WHERE state = 'leased' "
            "AND lease_expires_at < ?", (now,))
        # 2. sharded jobs past their budget (pipelines enforce their
        # own): fail them and dissolve their shard leases, so each
        # worker's next heartbeat stops it; done shards stay journaled
        failed = []
        rows = conn.execute(
            "SELECT id, params, started_at FROM jobs "
            "WHERE state = 'running' AND started_at IS NOT NULL "
            "AND EXISTS (SELECT 1 FROM shards "
            "            WHERE shards.job_id = jobs.id)").fetchall()
        for row in rows:
            budget = json.loads(row["params"]).get("budget")
            if budget is None or now - row["started_at"] <= budget:
                continue
            failed.append(int(row["id"]))
            conn.execute(
                "UPDATE jobs SET state = 'failed', finished_at = ?, "
                "error = ? WHERE id = ?",
                (now, str(BudgetExceeded.for_job(row["id"], budget)),
                 row["id"]))
            conn.execute(
                "UPDATE shards SET state = 'queued', worker = NULL, "
                "lease_expires_at = NULL WHERE job_id = ? "
                "AND state = 'leased'", (row["id"],))
        # 3. cancelled sharded jobs whose workers have all let go: the
        # job can settle once no shard lease is live and work remains
        rows = conn.execute(
            "SELECT id FROM jobs WHERE state = 'running' "
            "AND cancel_requested = 1 "
            "AND EXISTS (SELECT 1 FROM shards "
            "            WHERE shards.job_id = jobs.id "
            "            AND shards.state != 'done') "
            "AND NOT EXISTS (SELECT 1 FROM shards "
            "                WHERE shards.job_id = jobs.id "
            "                AND shards.state = 'leased')").fetchall()
        cancelled = [int(row["id"]) for row in rows]
        for job_id in cancelled:
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?, "
                "error = ? WHERE id = ?",
                (now, "cancelled between work units; completed units "
                      "are journaled — requeue to continue", job_id))
        return {"shards": released, "cancelled": cancelled,
                "failed": failed}

    # -- shard claiming ------------------------------------------------------
    def claim_shard(self, worker: str, lease_seconds: float,
                    plan: Callable[[Job], Optional[Tuple[int, int]]],
                    max_units: Optional[int] = None
                    ) -> Optional[Tuple[Job, Tuple[int, int]]]:
        """Lease the next unit shard for a pull-based worker.

        Preference order: an open shard of a job already running sharded
        (so in-flight jobs finish before new ones start), else the best
        ``queued`` job — *plan* maps it to ``(total_units,
        units_per_claim)`` (or ``None`` for a pipeline job, which only
        the daemon's scheduler runs) and its shard rows are created on
        first claim.  Expired leases are reaped first, so a dead
        worker's shard is handed out by the very next claim.
        ``max_units`` caps the claim for workers that pace themselves
        from units/s telemetry: a wider shard is split, the remainder
        re-queued for the next claim.  Returns ``(job, (lo, hi))`` or
        ``None`` when no claimable work exists.
        """
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            self._reap_locked(conn, now)
            row = conn.execute(
                "SELECT s.job_id, s.lo, s.hi FROM shards s "
                "JOIN jobs j ON j.id = s.job_id "
                "WHERE s.state = 'queued' AND j.state = 'running' "
                "AND j.cancel_requested = 0 "
                "ORDER BY j.priority DESC, j.id, s.lo LIMIT 1").fetchone()
            if row is None:
                row = self._shard_queued_job(conn, now, plan)
            if row is None:
                conn.execute("COMMIT")
                return None
            job_id, lo, hi = int(row["job_id"]), int(row["lo"]), \
                int(row["hi"])
            if max_units is not None and hi - lo > max(1, int(max_units)):
                split = lo + max(1, int(max_units))
                conn.execute(
                    "UPDATE shards SET hi = ? WHERE job_id = ? AND lo = ?",
                    (split, job_id, lo))
                conn.execute(
                    "INSERT INTO shards (job_id, lo, hi, state) "
                    "VALUES (?, ?, ?, 'queued')", (job_id, split, hi))
                hi = split
            conn.execute(
                "UPDATE shards SET state = 'leased', worker = ?, "
                "lease_expires_at = ? WHERE job_id = ? AND lo = ?",
                (worker, now + float(lease_seconds), job_id, lo))
            self._touch_worker(conn, worker, now, claimed=1)
            conn.execute("COMMIT")
        return self.get(job_id), (lo, hi)

    def _shard_queued_job(self, conn: sqlite3.Connection, now: float,
                          plan: Callable[[Job], Optional[Tuple[int, int]]]
                          ) -> Optional[sqlite3.Row]:
        """Shard the best claimable queued job; return its first shard."""
        for job_row in conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued' "
                "ORDER BY priority DESC, id").fetchall():
            layout = plan(Job._from_row(job_row))
            if layout is None:
                continue  # a pipeline: the daemon's scheduler runs it
            job_id = int(job_row["id"])
            total, per_claim = int(layout[0]), max(1, int(layout[1]))
            existing = conn.execute(
                "SELECT COUNT(*) AS n FROM shards WHERE job_id = ?",
                (job_id,)).fetchone()["n"]
            if not existing:
                for lo in range(0, total, per_claim):
                    conn.execute(
                        "INSERT INTO shards (job_id, lo, hi, state) "
                        "VALUES (?, ?, ?, 'queued')",
                        (job_id, lo, min(lo + per_claim, total)))
            conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?, "
                "attempts = attempts + 1 WHERE id = ?", (now, job_id))
            # a re-queued sharded job reuses its rows: 'done' shards
            # stay done (their units are journaled), the rest re-run
            row = conn.execute(
                "SELECT job_id, lo, hi FROM shards WHERE job_id = ? "
                "AND state = 'queued' ORDER BY lo LIMIT 1",
                (job_id,)).fetchone()
            if row is not None:
                return row
            # every shard is done: running again, the job awaits its
            # merge, and the claim goes on to the next queued job
        return None

    def extend_shards(self, job_id: int, total: int,
                      per_claim: int) -> int:
        """Append queued shard rows covering ``[covered, total)``.

        The moving-horizon half of adaptive sharded jobs: when the
        journal tallies say the stop rule needs more units than the
        shard table covers, new claimable rows are appended for the
        extension.  Existing rows — done or in flight — are untouched,
        and a *total* the table already covers is a no-op.  Returns the
        number of rows added.
        """
        per_claim = max(1, int(per_claim))
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT MAX(hi) AS hi FROM shards WHERE job_id = ?",
                (int(job_id),)).fetchone()
            covered = int(row["hi"] or 0)
            added = 0
            for lo in range(covered, int(total), per_claim):
                conn.execute(
                    "INSERT INTO shards (job_id, lo, hi, state) "
                    "VALUES (?, ?, ?, 'queued')",
                    (int(job_id), lo, min(lo + per_claim, int(total))))
                added += 1
            conn.execute("COMMIT")
        return added

    def complete_shard(self, job_id: int, lo: int, worker: str,
                       units: int = 0) -> bool:
        """Mark a leased shard done; True when it was the job's last.

        Raises when the shard is no longer leased to *worker* — its
        lease expired and another worker owns (or already finished) the
        range, so the caller's results must be dropped, not merged.
        """
        now = time.time()
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT state, worker FROM shards "
                "WHERE job_id = ? AND lo = ?",
                (int(job_id), int(lo))).fetchone()
            if row is None:
                raise ServiceError(
                    f"job {job_id} has no shard at unit {lo}")
            if row["state"] != "leased" or row["worker"] != worker:
                raise ServiceError(
                    f"worker {worker!r} no longer holds the lease on "
                    f"job {job_id} units [{lo}, ...); results dropped")
            conn.execute(
                "UPDATE shards SET state = 'done', lease_expires_at = "
                "NULL WHERE job_id = ? AND lo = ?", (int(job_id), int(lo)))
            self._touch_worker(conn, worker, now, units=units)
            remaining = conn.execute(
                "SELECT COUNT(*) AS n FROM shards WHERE job_id = ? "
                "AND state != 'done'", (int(job_id),)).fetchone()["n"]
            conn.execute("COMMIT")
        return remaining == 0

    def release_shard(self, job_id: int, lo: int, worker: str) -> None:
        """Hand a leased shard back unfinished (cooperative cancel)."""
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            updated = conn.execute(
                "UPDATE shards SET state = 'queued', worker = NULL, "
                "lease_expires_at = NULL WHERE job_id = ? AND lo = ? "
                "AND state = 'leased' AND worker = ?",
                (int(job_id), int(lo), worker)).rowcount
            conn.execute("COMMIT")
        if not updated:
            raise ServiceError(
                f"worker {worker!r} holds no lease on job {job_id} "
                f"units [{lo}, ...)")

    def shards(self, job_id: int) -> List[dict]:
        """The job's shard table (empty for unsharded jobs)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT lo, hi, state, worker, lease_expires_at "
                "FROM shards WHERE job_id = ? ORDER BY lo",
                (int(job_id),)).fetchall()
        return [dict(row) for row in rows]

    def sharded_jobs_ready(self) -> List[int]:
        """Running sharded jobs whose every shard is done (merge now)."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE state = 'running' "
                "AND EXISTS (SELECT 1 FROM shards "
                "            WHERE shards.job_id = jobs.id) "
                "AND NOT EXISTS (SELECT 1 FROM shards "
                "                WHERE shards.job_id = jobs.id "
                "                AND shards.state != 'done')").fetchall()
        return [int(row["id"]) for row in rows]

    # -- worker registry -----------------------------------------------------
    @staticmethod
    def _touch_worker(conn: sqlite3.Connection, worker: str, now: float,
                      claimed: int = 0, units: int = 0) -> None:
        conn.execute(
            "INSERT INTO workers (id, first_seen, last_seen, "
            "jobs_claimed, units_done) VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(id) DO UPDATE SET last_seen = ?, "
            "jobs_claimed = jobs_claimed + ?, "
            "units_done = units_done + ?",
            (worker, now, now, claimed, units, now, claimed, units))

    def list_workers(self, alive_within: float = 120.0,
                     now: Optional[float] = None) -> List[dict]:
        """Every worker ever seen, liveness-judged by last heartbeat."""
        now = time.time() if now is None else now
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM workers ORDER BY id").fetchall()
        return [{
            "id": row["id"],
            "first_seen": float(row["first_seen"]),
            "last_seen": float(row["last_seen"]),
            "jobs_claimed": int(row["jobs_claimed"]),
            "units_done": int(row["units_done"]),
            "alive": (now - float(row["last_seen"])) <= alive_within,
        } for row in rows]

    # -- cancellation --------------------------------------------------------
    def request_cancel(self, job_id: int) -> Job:
        """Cancel a job: immediately if queued, cooperatively if running.

        A running job's workers see the flag on their next
        :meth:`heartbeat` (a pipeline's scheduler polls
        :meth:`cancel_requested`) between work units; completed units
        stay journaled, so a cancelled job that is later re-queued
        resumes rather than restarts.  Cancelling a job already in a
        terminal state raises — the check happens inside the claiming
        transaction, so a job finishing concurrently can never be
        stamped ``cancel_requested`` after the fact (the caller gets the
        409, not a silent no-op).
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute("SELECT state FROM jobs WHERE id = ?",
                               (int(job_id),)).fetchone()
            if row is None:
                raise ServiceError(f"no such job: {job_id}")
            if row["state"] in TERMINAL_STATES:
                raise ServiceError(
                    f"job {job_id} is already {row['state']}; "
                    f"nothing to cancel")
            if row["state"] == "queued":
                conn.execute(
                    "UPDATE jobs SET state = 'cancelled', "
                    "finished_at = ?, error = 'cancelled before start', "
                    "cancel_requested = 1 WHERE id = ?",
                    (time.time(), int(job_id)))
            else:
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (int(job_id),))
            conn.execute("COMMIT")
        return self.get(job_id)

    def cancel_requested(self, job_id: int) -> bool:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?",
                (int(job_id),)).fetchone()
        return bool(row and row["cancel_requested"])

    def requeue(self, job_id: int) -> Job:
        """Put a ``failed``/``cancelled`` job back in the queue.

        The job keeps its id and parameters, so its journals (and
        therefore all completed work — including the unit shards other
        workers already delivered) are reused by the next run.
        """
        job = self.get(job_id)
        if job.state not in ("failed", "cancelled"):
            raise ServiceError(
                f"only failed/cancelled jobs can be re-queued; "
                f"job {job_id} is {job.state}")
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL, "
                "finished_at = NULL, error = NULL, cancel_requested = 0 "
                "WHERE id = ?", (int(job_id),))
            # any stale shard lease dissolves with the requeue; 'done'
            # shards keep their state (their units are journaled)
            conn.execute(
                "UPDATE shards SET state = 'queued', worker = NULL, "
                "lease_expires_at = NULL WHERE job_id = ? "
                "AND state = 'leased'", (int(job_id),))
            conn.execute("COMMIT")
        return self.get(job_id)
