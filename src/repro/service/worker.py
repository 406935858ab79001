"""Pull-based campaign worker: claims unit shards over plain HTTP.

``python -m repro worker --url http://coordinator:8765`` turns any
machine with this package into an injection-fleet member — the paper's
12-node ModelSim cluster shape, with zero shared filesystem.  It is
also how a daemon runs pvf/rtl jobs itself: an executing
:class:`~repro.service.api.ServiceDaemon` runs one worker on a thread,
pointed at its own URL.  The protocol is lease-based pull:

1. ``POST /claim`` leases the next unit shard ``[lo, hi)`` of a pvf/rtl
   job.
2. The worker re-plans the job's deterministic seed-indexed units from
   the job parameters alone (:func:`repro.service.scheduler.run_job_units`)
   and executes only its shard, on a pool of the job's ``jobs``
   processes.  Between units it heartbeats; the response carries
   ``cancel_requested``, which is how cooperative cancellation (and an
   exhausted budget) reaches the worker.
3. ``POST /jobs/<id>/units`` delivers the per-unit reports and their
   telemetry rows; the daemon journals them and merges all shards in
   unit-index order — the merged report is bit-identical to a
   single-process run.

Crash story: a SIGKILLed worker simply stops heartbeating.  Its lease
expires, the daemon's reaper hands the shard to a surviving worker, and
because unit randomness depends only on the unit index, the re-executed
shard produces the same bytes the dead worker would have.  A worker
whose lease expired mid-shard (one unit outlasting the lease) finds out
at delivery time: the daemon answers 409 and the stale results are
dropped, never merged twice.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Optional

from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignCancelled, ServiceError
from .client import ServiceClient
from .scheduler import run_job_units

__all__ = ["CampaignWorker", "default_worker_name"]

_log = logging.getLogger(__name__)


def default_worker_name() -> str:
    """``<hostname>-<pid>``: unique per process, stable for its life."""
    return f"{socket.gethostname()}-{os.getpid()}"


class CampaignWorker:
    """One claim-execute-deliver loop against a campaign service.

    ``lease_seconds`` must comfortably exceed one work unit's wall
    clock: the lease is renewed between units, never during one.  An
    undersized lease is safe — the shard is re-issued to another worker
    and this one's late delivery is rejected with a 409 — but the work
    is executed twice.

    Claims are self-paced: after the first delivered shard the worker
    knows its seconds-per-unit and caps every further claim
    (``max_units``) so one claim spans about one lease of work — a slow
    machine claims narrow shards and stops starving faster fleet
    members, see :meth:`target_units`.
    """

    def __init__(self, url: str, name: Optional[str] = None,
                 lease_seconds: float = 30.0,
                 poll_interval: float = 1.0,
                 http_timeout: float = 30.0) -> None:
        if lease_seconds <= 0:
            raise ServiceError("lease_seconds must be positive")
        self.client = ServiceClient(url, timeout=http_timeout)
        self.name = name or default_worker_name()
        self.lease_seconds = float(lease_seconds)
        self.poll_interval = float(poll_interval)
        #: EMA of seconds per work unit, from delivered shards
        self._unit_seconds: Optional[float] = None

    def target_units(self) -> Optional[int]:
        """How many units the next claim should span (None: no cap yet).

        Adapts the claim width to this machine's measured pace: until a
        shard has been delivered there is no telemetry and the claim
        takes whatever the service hands out; afterwards the cap keeps
        one claim near ``lease_seconds`` of work, so slow units shrink
        the claim (and fast ones let the service's shard width stand).
        """
        if not self._unit_seconds or self._unit_seconds <= 0:
            return None
        return max(1, int(self.lease_seconds / self._unit_seconds))

    def _observe_units(self, units: int, elapsed: float) -> None:
        """Fold one delivered shard into the units/s telemetry (EMA)."""
        if units <= 0 or elapsed <= 0:
            return
        per_unit = elapsed / units
        if self._unit_seconds is None:
            self._unit_seconds = per_unit
        else:
            self._unit_seconds = (self._unit_seconds + per_unit) / 2.0

    # -- one claim ----------------------------------------------------------
    def run_once(self, stop: Optional[threading.Event] = None
                 ) -> Optional[dict]:
        """Claim and execute at most one shard.

        Returns ``None`` when the service had no claimable work, else a
        summary dict whose ``outcome`` is one of ``delivered``,
        ``released`` (cooperative cancel, or *stop* set mid-shard),
        ``lease-lost`` (results dropped), ``rejected`` (delivery refused
        — typically the lease expired mid-shard) or ``failed`` (the
        campaign raised; the job was failed via the service).
        """
        claim = self.client.claim(self.name, self.lease_seconds,
                                  max_units=self.target_units())
        if claim is None:
            return None
        job = claim["job"]
        job_id, (lo, hi) = job["id"], claim["units"]
        summary = {"job": job_id, "worker": self.name, "units": [lo, hi]}
        _log.info("[worker %s] claimed job %s units [%s, %s)", self.name,
                  job_id, lo, hi)

        # heartbeat between units: renews the lease and carries the
        # cancellation flag back; a lost lease aborts the shard
        beat_every = max(0.2, self.lease_seconds / 3.0)
        state = {"last_beat": time.monotonic(), "lost": False,
                 "cancelled": False}

        def cancel() -> bool:
            if state["lost"] or state["cancelled"]:
                return True
            if stop is not None and stop.is_set():
                state["cancelled"] = True  # hand the shard back
                return True
            now = time.monotonic()
            if now - state["last_beat"] < beat_every:
                return False
            state["last_beat"] = now
            try:
                beat = self.client.heartbeat(job_id, self.name,
                                             self.lease_seconds)
            except ServiceError as exc:
                # 409 (lease re-issued elsewhere) or unreachable
                # daemon: either way this shard's results are stale
                _log.info("[worker %s] lease lost on job %s: %s",
                          self.name, job_id, exc)
                state["lost"] = True
                return True
            if beat.get("cancel_requested"):
                state["cancelled"] = True
                return True
            return False

        metrics = CampaignMetrics(f"{job['kind']}/job-{job_id}")
        started = time.monotonic()
        try:
            reports = run_job_units(job["kind"], job["params"], lo, hi,
                                    cancel=cancel, metrics=metrics)
        except CampaignCancelled:
            if state["lost"]:
                return dict(summary, outcome="lease-lost")
            try:
                self.client.release_shard(job_id, self.name, lo)
            except ServiceError:
                pass  # lease may have lapsed while we noticed the cancel
            _log.info("[worker %s] released job %s units [%s, %s) "
                      "(cancelled)", self.name, job_id, lo, hi)
            return dict(summary, outcome="released")
        except Exception as exc:
            try:
                self.client.fail_job(job_id, self.name, lo,
                                     f"{type(exc).__name__}: {exc}")
            except ServiceError:
                pass  # someone else already settled the job
            _log.info("[worker %s] job %s failed: %s", self.name, job_id,
                      exc)
            return dict(summary, outcome="failed", error=str(exc))
        self._observe_units(hi - lo, time.monotonic() - started)
        try:
            delivered = self.client.post_units(
                job_id, self.name, lo, reports,
                units=[unit.to_dict() for unit in metrics.units])
        except ServiceError as exc:
            _log.info("[worker %s] delivery rejected for job %s: %s",
                      self.name, job_id, exc)
            return dict(summary, outcome="rejected", error=str(exc))
        _log.info("[worker %s] delivered job %s units [%s, %s) "
                  "(job state: %s)", self.name, job_id, lo, hi,
                  delivered.get("state"))
        return dict(summary, outcome="delivered",
                    units_done=len(reports),
                    job_state=delivered.get("state"))

    # -- the loop -----------------------------------------------------------
    def run_forever(self, stop: Optional[threading.Event] = None,
                    drain: bool = False,
                    max_claims: Optional[int] = None) -> int:
        """Claim shards until *stop* is set; returns the claim count.

        ``drain=True`` exits as soon as a claim comes back empty (batch
        mode: process everything queued, then leave).  ``max_claims``
        bounds the number of shards executed.  A transport error — the
        daemon restarting, say — is retried with bounded backoff, never
        fatal.
        """
        stop = stop or threading.Event()
        claims = 0
        backoff = self.poll_interval
        while not stop.is_set():
            if max_claims is not None and claims >= max_claims:
                break
            try:
                summary = self.run_once(stop)
            except ServiceError as exc:
                _log.info("[worker %s] service unreachable (%s); "
                          "retrying in %.1fs", self.name, exc, backoff)
                stop.wait(backoff)
                backoff = min(backoff * 2, 30.0)
                continue
            backoff = self.poll_interval
            if summary is None:
                if drain:
                    break
                stop.wait(self.poll_interval)
                continue
            claims += 1
        return claims
