"""Campaign-as-a-service: durable job queue, HTTP API, worker fleet.

The paper's experiments ran as fleet-style campaigns on a 12-node
server; this package is the reproduction's equivalent of that fleet
controller.  A daemon (``python -m repro serve``) owns a workdir with a
SQLite-backed job queue, runs submitted campaigns (RTL cells, SWFI PVF
runs, full pipelines) with checkpoint/resume and live telemetry, and
serves results over a stdlib-only HTTP API.  Every pvf/rtl job runs in
unit shards claimed by workers — remote ones, and the daemon's own
local worker thread:

* :mod:`repro.service.store` — the durable :class:`JobStore`
  (``queued/running/done/failed/cancelled``; survives SIGKILL), with
  job priorities, shard leases and per-job unit shards.
* :mod:`repro.service.scheduler` — validates and plans jobs, runs the
  shard protocol's worker half (``run_job_units``) and merge
  (``finalize_sharded_job``), and the daemon's maintenance loop: it
  reaps expired leases, enforces budgets, merges finished jobs and
  runs pipeline jobs whole.
* :mod:`repro.service.api` — ``POST /jobs``, ``GET /jobs[/<id>]``,
  ``POST /jobs/<id>/cancel``, ``GET /artifacts/<id>/...`` with
  ETag-based caching, plus the worker protocol (``POST /claim``,
  ``POST /jobs/<id>/heartbeat``, ``POST /jobs/<id>/units``,
  ``GET /workers``); :class:`ServiceDaemon` bundles everything.
* :mod:`repro.service.client` — the thin :class:`ServiceClient` behind
  ``python -m repro submit/jobs/fetch/cancel``.
* :mod:`repro.service.worker` — :class:`CampaignWorker`, the
  lease-based pull loop behind ``python -m repro worker`` and the
  daemon's local worker: any machine with this package joins the fleet
  over plain HTTP, no shared filesystem.

Because jobs execute through the exact campaign specs the synchronous
CLI uses, a job's merged report is bit-identical to the direct run's for
the same seed — however many times the daemon was killed and restarted
in between, and however many workers shared the job's unit shards.
"""

from .api import (
    ApiError,
    CampaignService,
    ServiceDaemon,
    content_etag,
)
from .client import ServiceClient
from .scheduler import (
    JOB_KINDS,
    Scheduler,
    execute_job,
    finalize_sharded_job,
    normalize_params,
    plan_job_units,
    run_job_units,
)
from .store import JOB_STATES, TERMINAL_STATES, Job, JobStore
from .worker import CampaignWorker, default_worker_name

__all__ = [
    "ApiError",
    "CampaignService",
    "CampaignWorker",
    "Job",
    "JobStore",
    "JOB_KINDS",
    "JOB_STATES",
    "Scheduler",
    "ServiceClient",
    "ServiceDaemon",
    "TERMINAL_STATES",
    "content_etag",
    "default_worker_name",
    "execute_job",
    "finalize_sharded_job",
    "normalize_params",
    "plan_job_units",
    "run_job_units",
]
