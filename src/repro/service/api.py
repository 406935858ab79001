"""HTTP API and artifact registry over the job store and scheduler.

Endpoints (all JSON unless noted):

* ``POST /jobs`` — submit ``{"kind": "pvf"|"rtl"|"pipeline",
  "params": {...}, "priority": 0}``; parameters are validated up front
  (400 on error), a saturated queue answers 429 when the daemon was
  started with a queue-depth limit, and a coordinator without a
  scheduler answers 422 to jobs no worker can claim.
* ``GET /jobs`` (``?state=queued|running|done|failed|cancelled``) —
  list jobs.
* ``GET /jobs/<id>`` — one job, plus ``telemetry``: the live
  ``metrics.json`` heartbeat its campaign is writing (per-stage
  summaries; per-unit records are available via the artifact) and
  ``shards``: the unit-shard table of a multi-worker job.
* ``POST /jobs/<id>/cancel`` — immediate for queued jobs, cooperative
  (between work units) for running ones.
* ``POST /jobs/<id>/requeue`` — put a failed/cancelled job back in the
  queue; its journals make the re-run resume, not restart.
* ``GET /artifacts/<id>/report`` — the job's merged campaign report.
* ``GET /artifacts/<id>/metrics`` — full telemetry incl. per-unit rows.
* ``GET /artifacts/<id>/syndromes`` — a pipeline job's distilled
  syndrome database as flat CSV (``text/csv``).
* ``GET /artifacts/<id>/patterns`` — the SDC pattern report mined from
  a finished pvf/rtl job's merged report (``pattern-report`` schema),
  generated lazily on first fetch.

Worker protocol (remote machines joining with zero shared filesystem):

* ``POST /claim`` — ``{"worker": "name", "lease_seconds": 30}``; 200
  with ``{"job": ..., "units": [lo, hi], "lease_seconds": ...}`` leases
  the next unit shard of a claimable pvf/rtl job, 204 means no work.
  An optional ``"max_units"`` caps the claim (the shard is split and
  the remainder re-queued) — workers pace it from units/s telemetry.
* ``POST /jobs/<id>/heartbeat`` — renew the worker's lease between
  units; the response carries ``cancel_requested`` (cooperative
  cancellation) and 409 means the lease expired — drop the results.
* ``POST /jobs/<id>/units`` — deliver a finished shard's per-unit
  reports (``{"worker": ..., "lo": ..., "reports": {index: payload}}``),
  hand a shard back unfinished (``"release": true``) or fail the job
  (``"error": "..."``).  The daemon journals the units and, when the
  last shard lands, merges them in unit-index order — bit-identical to
  a single-process run.
* ``GET /workers`` — every worker ever seen, with liveness.

Artifact responses carry a strong ``ETag`` (content SHA-256); a request
whose ``If-None-Match`` matches gets ``304 Not Modified`` with no body —
polling clients re-download nothing that has not changed.  They also
carry ``X-Artifact-Schema`` and ``X-Artifact-Version`` headers naming
the payload's :mod:`repro.artifacts` schema, so clients can pick a
decoder (and detect version skew) without sniffing the body.

:class:`ServiceDaemon` bundles the pieces: it recovers interrupted jobs,
runs the scheduler loop on one thread and a
:class:`~http.server.ThreadingHTTPServer` on another, and records its
bound address in ``<workdir>/service.json`` so clients (and tests using
``--port 0``) can find it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import CampaignError, ServiceError
from .scheduler import (
    JOB_KINDS,
    Scheduler,
    finalize_sharded_job,
    job_spec,
    normalize_params,
    plan_job_units,
    spec_journal,
)
from .store import JOB_STATES, JobStore

__all__ = ["ApiError", "CampaignService", "ServiceDaemon", "serve",
           "DEFAULT_LEASE_SECONDS"]

#: Lease a claim stamps when the worker does not ask for a specific one.
DEFAULT_LEASE_SECONDS = 30.0


class ApiError(ServiceError):
    """A request error with the HTTP status it maps to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: artifact name -> (file name inside the job directory, content type)
_ARTIFACTS = {
    "report": ("report.json", "application/json"),
    "metrics": ("metrics.json", "application/json"),
    "syndromes": ("syndromes.csv", "text/csv"),
    "patterns": ("patterns.json", "application/json"),
    "signature": ("signature.json", "application/json"),
}


def content_etag(body: bytes) -> str:
    """Strong ETag for an artifact body: quoted content SHA-256."""
    return '"' + hashlib.sha256(body).hexdigest() + '"'


class CampaignService:
    """Transport-independent request handling.

    Every method returns plain JSON-ready data or raises
    :class:`ApiError`; the HTTP handler (and any future transport) is a
    thin shell around it.
    """

    def __init__(self, store: JobStore, scheduler: Scheduler,
                 max_queue_depth: Optional[int] = None) -> None:
        self.store = store
        self.scheduler = scheduler
        self.max_queue_depth = max_queue_depth
        # serialises shard-unit ingest: journals are append-only JSONL
        # and two workers may deliver shards of one job concurrently
        self._ingest_lock = threading.Lock()

    # -- jobs ---------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        kind = payload.get("kind")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ApiError(400, "priority must be an integer")
        try:
            params = normalize_params(kind, payload.get("params"))
        except ServiceError as exc:
            raise ApiError(400, str(exc))
        if not self.scheduler.execute_jobs and (
                kind == "pipeline" or not job_spec(kind, params).units):
            # a coordinator only merges what workers deliver
            raise ApiError(
                422, f"workers cannot claim this {kind} job — pipelines "
                     f"and empty campaigns run only on a daemon's own "
                     f"scheduler, and this one was started with "
                     f"--no-scheduler")
        if self.max_queue_depth is not None:
            depth = self.store.count_states()["queued"]
            if depth >= self.max_queue_depth:
                raise ApiError(
                    429, f"queue is saturated ({depth} job(s) queued, "
                         f"limit {self.max_queue_depth}); retry later")
        job = self.store.submit(kind, params, priority=priority)
        return job.to_dict()

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        try:
            return [job.to_dict() for job in self.store.list_jobs(state)]
        except ServiceError as exc:
            raise ApiError(400, str(exc))

    def job(self, job_id: int) -> dict:
        job = self._get(job_id)
        payload = job.to_dict()
        payload["telemetry"] = self._telemetry(job_id)
        shards = self.store.shards(job_id)
        if shards:
            payload["shards"] = shards
        return payload

    def cancel(self, job_id: int) -> dict:
        self._get(job_id)  # 404 before 409
        try:
            return self.store.request_cancel(job_id).to_dict()
        except ServiceError as exc:
            raise ApiError(409, str(exc))

    def requeue(self, job_id: int) -> dict:
        self._get(job_id)
        try:
            return self.store.requeue(job_id).to_dict()
        except ServiceError as exc:
            raise ApiError(409, str(exc))

    def health(self) -> dict:
        # one GROUP BY, never a per-row scan: /health is polled and must
        # stay cheap no matter how many finished jobs the store holds
        counts = self.store.count_states()
        workers = self.store.list_workers()
        return {
            "status": "ok",
            "kinds": list(JOB_KINDS),
            "jobs": counts,
            "queue_depth": counts["queued"],
            "max_queue_depth": self.max_queue_depth,
            "workers": {
                "known": len(workers),
                "alive": sum(1 for w in workers if w["alive"]),
            },
        }

    # -- worker protocol ----------------------------------------------------
    @staticmethod
    def _worker_name(payload: dict) -> str:
        worker = payload.get("worker")
        if not worker or not isinstance(worker, str):
            raise ApiError(400, "a non-empty 'worker' name is required")
        return worker

    @staticmethod
    def _lease_seconds(payload: dict) -> float:
        lease = payload.get("lease_seconds", DEFAULT_LEASE_SECONDS)
        if isinstance(lease, bool) or not isinstance(lease, (int, float)):
            raise ApiError(400, "lease_seconds must be a number")
        if lease <= 0:
            raise ApiError(400, "lease_seconds must be positive")
        return float(lease)

    def claim(self, payload: dict) -> Optional[dict]:
        """Lease the next unit shard; ``None`` means no claimable work."""
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        worker = self._worker_name(payload)
        lease = self._lease_seconds(payload)
        max_units = payload.get("max_units")
        if max_units is not None and (isinstance(max_units, bool)
                                      or not isinstance(max_units, int)
                                      or max_units < 1):
            raise ApiError(400, "max_units must be a positive integer")
        claimed = self.store.claim_shard(
            worker, lease,
            lambda job: plan_job_units(job,
                                       self.scheduler.jobdir(job.id)),
            max_units=max_units)
        if claimed is None:
            return None
        job, (lo, hi) = claimed
        return {
            "job": job.to_dict(),
            "units": [lo, hi],
            "lease_seconds": lease,
        }

    def heartbeat(self, job_id: int, payload: dict) -> dict:
        """Renew a worker's lease; 409 once the lease has been lost."""
        self._get(job_id)  # 404 before 409
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        worker = self._worker_name(payload)
        lease = self._lease_seconds(payload)
        try:
            job = self.store.heartbeat(job_id, worker, lease)
        except ServiceError as exc:
            raise ApiError(409, str(exc))
        return {
            "id": job.id,
            "state": job.state,
            "cancel_requested": job.cancel_requested,
            "lease_seconds": lease,
        }

    def workers(self) -> List[dict]:
        return self.store.list_workers()

    def post_units(self, job_id: int, payload: dict) -> dict:
        """Ingest a shard's unit reports (or a release / worker error).

        The delivery path of the pull protocol: reports are validated
        through the artifact registry, journaled into the job's regular
        campaign checkpoint (so requeues and in-process runs resume
        from them), and the shard is marked done — the worker that
        lands the job's last shard triggers the in-order merge.
        """
        job = self._get(job_id)
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        worker = self._worker_name(payload)
        lo = payload.get("lo")
        if isinstance(lo, bool) or not isinstance(lo, int):
            raise ApiError(400, "'lo' (the shard's first unit) is "
                                "required and must be an integer")
        if payload.get("error"):
            return self._fail_shard(job, lo, worker,
                                    str(payload["error"]))
        if payload.get("release"):
            try:
                self.store.release_shard(job.id, lo, worker)
            except ServiceError as exc:
                raise ApiError(409, str(exc))
            return {"id": job.id, "released": lo}
        reports = payload.get("reports")
        if not isinstance(reports, dict) or not reports:
            raise ApiError(400, "'reports' must be a non-empty object "
                                "of {unit index: report payload}")
        from ..artifacts import load_artifact
        from ..errors import ArtifactError

        try:
            spec = job_spec(job.kind, job.params)
        except ServiceError as exc:
            raise ApiError(409, str(exc))
        decoded = {}
        try:
            for key, body in reports.items():
                decoded[int(key)] = load_artifact(spec.schema, body)
        except (ArtifactError, ValueError) as exc:
            raise ApiError(400, f"undecodable unit report: {exc}")
        jobdir = self.scheduler.jobdir(job.id)
        with self._ingest_lock:
            # journal first, then mark the shard done: a crash in
            # between costs a duplicate delivery (deduped by unit
            # index on load), never a done-shard with missing units
            journal = spec_journal(spec, jobdir)
            try:
                for index in sorted(decoded):
                    if index not in journal.completed:
                        journal.record(index, decoded[index])
            finally:
                journal.close()
            try:
                last = self.store.complete_shard(job.id, lo, worker,
                                                 units=len(decoded))
            except ServiceError as exc:
                raise ApiError(409, str(exc))
            self._record_shard_metrics(job, jobdir, journal.completed)
            if last:
                try:
                    finalize_sharded_job(self.store, job, jobdir)
                except ServiceError:
                    # lost the finalize race (scheduler maintenance
                    # pass) or a unit gap: maintenance retries/settles
                    pass
        fresh = self._get(job_id)
        return {"id": fresh.id, "state": fresh.state,
                "shard": lo, "units_recorded": len(decoded)}

    def _fail_shard(self, job, lo: int, worker: str,
                    message: str) -> dict:
        """A worker hit a non-transient execution error: fail the job."""
        try:
            self.store.release_shard(job.id, lo, worker)
        except ServiceError as exc:
            raise ApiError(409, str(exc))
        try:
            failed = self.store.finish(
                job.id, "failed",
                error=f"worker {worker!r}: {message}")
        except ServiceError as exc:  # another path settled it first
            raise ApiError(409, str(exc))
        return failed.to_dict()

    def _record_shard_metrics(self, job, jobdir: Path,
                              completed: Dict[int, object]) -> None:
        """Keep the job's live ``metrics.json`` heartbeat current.

        Rebuilt from the journal on every delivery instead of patched
        incrementally — unit ordering and duplicate suppression come
        for free, and the journal is the ground truth anyway.
        """
        from ..campaign.telemetry import CampaignMetrics

        layout = plan_job_units(job, jobdir)
        metrics = CampaignMetrics(
            f"{job.kind}/job-{job.id}",
            total_units=None if layout is None else layout[0])
        for index in sorted(completed):
            report = completed[index]
            metrics.record_unit(index, label=f"unit {index}",
                                size=getattr(report, "n_injections", 0),
                                report=report, worker=0)
        metrics.save(jobdir / "metrics.json")

    # -- artifacts ----------------------------------------------------------
    def artifact(self, job_id: int, name: str
                 ) -> Tuple[bytes, str, Dict[str, str]]:
        """Return (body, content type, schema headers); 404 if absent.

        The headers name the artifact's schema so clients can pick a
        decoder without sniffing: ``X-Artifact-Schema`` /
        ``X-Artifact-Version`` (see :mod:`repro.artifacts`).
        """
        job = self._get(job_id)
        if name not in _ARTIFACTS:
            raise ApiError(
                404, f"unknown artifact {name!r}; "
                     f"choose from {sorted(_ARTIFACTS)}")
        jobdir = self.scheduler.jobdir(job.id)
        filename, content_type = _ARTIFACTS[name]
        path = jobdir / filename
        if name == "syndromes" and not path.exists():
            self._export_syndromes(jobdir)
        if name == "patterns" and not path.exists():
            self._export_patterns(jobdir)
        if not path.exists():
            raise ApiError(
                404, f"job {job_id} has no {name} artifact yet "
                     f"(state: {job.state})")
        body = path.read_bytes()
        return body, content_type, self._schema_headers(name, body)

    @staticmethod
    def _schema_headers(name: str, body: bytes) -> Dict[str, str]:
        """``X-Artifact-Schema``/``X-Artifact-Version`` for a body."""
        from ..artifacts import get_schema
        from ..errors import ArtifactError

        if name == "syndromes":
            # CSV projection of the syndrome database; versioned with it
            return {"X-Artifact-Schema": "syndrome-csv",
                    "X-Artifact-Version":
                        str(get_schema("syndrome-db").version)}
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        if not isinstance(payload, dict):
            return {}
        kind = payload.get("kind")
        if name == "report":
            # report.json is the job-result wrapper; its "kind" is the
            # job kind, which maps onto the embedded report's schema
            if kind == "rtl" and payload.get("fault_model") == "stuck-at":
                kind = "signature-report"
            else:
                kind = {"pvf": "pvf-report", "rtl": "rtl-report",
                        "pipeline": "pipeline-summary"}.get(kind, kind)
        if not isinstance(kind, str):
            return {}
        version = payload.get("version")
        if version is None:
            try:
                version = get_schema(kind).version
            except ArtifactError:
                version = 1
        return {"X-Artifact-Schema": kind,
                "X-Artifact-Version": str(version)}

    def _export_syndromes(self, jobdir: Path) -> None:
        from ..syndrome.export import export_database_file

        db_path = jobdir / "syndrome_db.json"
        if not db_path.exists():
            return  # only pipeline jobs distil a database
        export_database_file(db_path, jobdir)

    def _export_patterns(self, jobdir: Path) -> None:
        """Mine ``patterns.json`` lazily from the finished report.

        Pattern mining is a pure projection of ``report.json``, so it
        runs on first fetch rather than on the job's critical path.
        """
        from ..analytics import mine_patterns
        from ..artifacts import dump_artifact, load_artifact

        report_path = jobdir / "report.json"
        if not report_path.exists():
            return
        payload = json.loads(report_path.read_text())
        kind = payload.get("kind")
        if kind not in ("pvf", "rtl") or "report" not in payload:
            return  # pipeline jobs carry no single minable report
        schema = f"{kind}-report"
        if kind == "rtl" and payload.get("fault_model") == "stuck-at":
            schema = "signature-report"
        report = load_artifact(schema, payload["report"])
        mined = dump_artifact("pattern-report", mine_patterns(report))
        (jobdir / "patterns.json").write_text(
            json.dumps(mined, indent=2) + "\n")

    # -- internals ----------------------------------------------------------
    def _get(self, job_id: int):
        try:
            return self.store.get(job_id)
        except ServiceError as exc:
            raise ApiError(404, str(exc))

    def _telemetry(self, job_id: int) -> Optional[List[dict]]:
        """Stage-level metrics summaries (no per-unit rows) for a job."""
        from ..campaign.telemetry import discover_metrics

        jobdir = self.scheduler.jobdir(job_id)
        if not jobdir.exists():
            return None
        try:
            payloads = discover_metrics(jobdir)
        except (CampaignError, ValueError):
            # ValueError covers json.JSONDecodeError: a torn or
            # half-written metrics file must degrade to "no telemetry",
            # never 500 the job endpoint
            return None
        return [{k: v for k, v in payload.items() if k != "units"}
                for payload in payloads]


# -- HTTP plumbing ------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    # -- helpers ------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str,
              extra: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}")

    def _job_id(self, token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ApiError(404, f"no such job: {token}")

    def _route(self) -> None:
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        params = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair)
        try:
            self._dispatch(parts, params)
        except ApiError as exc:
            self._send_error_json(exc.status, str(exc))
        except Exception as exc:  # never leak a traceback as HTML
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _dispatch(self, parts: List[str], params: Dict[str, str]) -> None:
        service = self.service
        if self.command == "GET":
            if parts == ["health"]:
                return self._send_json(200, service.health())
            if parts == ["workers"]:
                return self._send_json(200, service.workers())
            if parts == ["jobs"]:
                state = params.get("state") or None
                return self._send_json(200, service.jobs(state))
            if len(parts) == 2 and parts[0] == "jobs":
                return self._send_json(
                    200, service.job(self._job_id(parts[1])))
            if len(parts) == 3 and parts[0] == "artifacts":
                body, content_type, schema = service.artifact(
                    self._job_id(parts[1]), parts[2])
                extra = {"ETag": content_etag(body), **schema}
                if self.headers.get("If-None-Match") == extra["ETag"]:
                    return self._send(304, b"", content_type, extra)
                return self._send(200, body, content_type, extra)
        elif self.command == "POST":
            if parts == ["jobs"]:
                return self._send_json(201,
                                       service.submit(self._read_json()))
            if parts == ["claim"]:
                claimed = service.claim(self._read_json())
                if claimed is None:
                    return self._send(204, b"", "application/json")
                return self._send_json(200, claimed)
            if len(parts) == 3 and parts[0] == "jobs":
                job_id = self._job_id(parts[1])
                if parts[2] == "cancel":
                    return self._send_json(200, service.cancel(job_id))
                if parts[2] == "requeue":
                    return self._send_json(200, service.requeue(job_id))
                if parts[2] == "heartbeat":
                    return self._send_json(
                        200, service.heartbeat(job_id, self._read_json()))
                if parts[2] == "units":
                    return self._send_json(
                        200, service.post_units(job_id,
                                                self._read_json()))
        raise ApiError(404, f"no such endpoint: {self.command} {self.path}")

    do_GET = do_POST = _route


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: CampaignService,
                 quiet: bool = True) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet


class ServiceDaemon:
    """The campaign service: scheduler loop + HTTP server + job store.

    ``port=0`` binds an ephemeral port; the effective address is exposed
    as :attr:`url` and recorded in ``<workdir>/service.json``.
    """

    def __init__(self, workdir: Union[str, Path],
                 host: str = "127.0.0.1", port: int = 8765,
                 poll_interval: float = 0.5, quiet: bool = True,
                 execute_jobs: bool = True,
                 max_queue_depth: Optional[int] = None) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.workdir / "jobs.sqlite3")
        # execute_jobs=False: coordinator mode — the scheduler thread
        # only reaps leases and merges finished shards; remote
        # ``repro worker`` processes do all the executing
        self.scheduler = Scheduler(self.store, self.workdir,
                                   poll_interval=poll_interval,
                                   quiet=quiet,
                                   execute_jobs=execute_jobs)
        self.service = CampaignService(self.store, self.scheduler,
                                       max_queue_depth=max_queue_depth)
        self.quiet = quiet
        self._httpd = _Server((host, port), self.service, quiet=quiet)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceDaemon":
        """Recover interrupted jobs, then serve HTTP + run the queue."""
        recovered = self.scheduler.recover()
        if recovered and not self.quiet:
            ids = ", ".join(str(job.id) for job in recovered)
            print(f"recovered interrupted job(s): {ids}", flush=True)
        (self.workdir / "service.json").write_text(json.dumps({
            "url": self.url,
            "host": self.address[0],
            "port": self.address[1],
            "pid": os.getpid(),
        }, indent=2) + "\n")
        self._threads = [
            threading.Thread(target=self._httpd.serve_forever,
                             name="repro-service-http", daemon=True),
            threading.Thread(target=self.scheduler.run_forever,
                             args=(self._stop,),
                             name="repro-service-scheduler", daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work and shut the HTTP server down."""
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=10)

    def wait(self) -> None:
        """Block until interrupted (the CLI foreground mode)."""
        try:
            while not self._stop.is_set():
                self._stop.wait(3600)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(workdir: Union[str, Path], host: str = "127.0.0.1",
          port: int = 8765, poll_interval: float = 0.5,
          quiet: bool = False, execute_jobs: bool = True,
          max_queue_depth: Optional[int] = None) -> None:
    """Run the campaign service in the foreground until interrupted."""
    daemon = ServiceDaemon(workdir, host=host, port=port,
                           poll_interval=poll_interval, quiet=quiet,
                           execute_jobs=execute_jobs,
                           max_queue_depth=max_queue_depth)
    daemon.start()
    print(f"repro service listening on {daemon.url} "
          f"(workdir {daemon.workdir})", flush=True)
    daemon.wait()
