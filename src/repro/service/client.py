"""Thin stdlib HTTP client for the campaign service.

Backs the ``python -m repro submit/jobs/fetch/cancel`` CLI verbs and the
test-suite's end-to-end checks.  Only :mod:`urllib` — a third party can
lift this file alone to drive a remote injection fleet.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..errors import ServiceError
from .store import TERMINAL_STATES

__all__ = ["ServiceClient"]


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8765``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 headers: Optional[dict] = None
                 ) -> Tuple[int, dict, bytes]:
        body = None
        send_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode()
            send_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers=send_headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return (response.status, dict(response.headers),
                        response.read())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            if exc.code == 304:
                return exc.code, dict(exc.headers), b""
            try:
                message = json.loads(raw)["error"]
            except (json.JSONDecodeError, KeyError, TypeError):
                message = raw.decode(errors="replace") or str(exc)
            raise ServiceError(
                f"{method} {path} failed ({exc.code}): {message}")
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}")

    def _json(self, method: str, path: str,
              payload: Optional[dict] = None):
        status, _, raw = self._request(method, path, payload)
        if status == 204 or not raw:
            return None
        return json.loads(raw)

    # -- API ----------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/health")

    def submit(self, kind: str, priority: int = 0, **params) -> dict:
        """Submit a campaign job; returns the created job record."""
        body = {"kind": kind, "params": params}
        if priority:
            body["priority"] = priority
        return self._json("POST", "/jobs", body)

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        query = f"?state={state}" if state else ""
        return self._json("GET", f"/jobs{query}")

    def job(self, job_id: Union[int, str]) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: Union[int, str]) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def requeue(self, job_id: Union[int, str]) -> dict:
        return self._json("POST", f"/jobs/{job_id}/requeue")

    # -- worker protocol -----------------------------------------------------
    def claim(self, worker: str,
              lease_seconds: Optional[float] = None,
              max_units: Optional[int] = None) -> Optional[dict]:
        """Lease the next unit shard; ``None`` when there is no work.

        ``max_units`` caps the claim's width — the service splits a
        wider shard and re-queues the remainder, so a slow worker can
        size its claims to what fits inside one lease.
        """
        payload = {"worker": worker}
        if lease_seconds is not None:
            payload["lease_seconds"] = lease_seconds
        if max_units is not None:
            payload["max_units"] = max_units
        return self._json("POST", "/claim", payload)

    def heartbeat(self, job_id: Union[int, str], worker: str,
                  lease_seconds: Optional[float] = None) -> dict:
        """Renew a lease; raises :class:`ServiceError` once it is lost."""
        payload = {"worker": worker}
        if lease_seconds is not None:
            payload["lease_seconds"] = lease_seconds
        return self._json("POST", f"/jobs/{job_id}/heartbeat", payload)

    def post_units(self, job_id: Union[int, str], worker: str, lo: int,
                   reports: dict, units: Optional[List[dict]] = None
                   ) -> dict:
        """Deliver a finished shard's ``{unit index: report payload}``
        and its per-unit telemetry rows (``UnitRecord`` dicts)."""
        return self._json("POST", f"/jobs/{job_id}/units", {
            "worker": worker, "lo": lo, "units": units,
            "reports": {str(k): v for k, v in reports.items()}})

    def release_shard(self, job_id: Union[int, str], worker: str,
                      lo: int) -> dict:
        """Hand a leased shard back unfinished (cooperative cancel)."""
        return self._json("POST", f"/jobs/{job_id}/units",
                          {"worker": worker, "lo": lo, "release": True})

    def fail_job(self, job_id: Union[int, str], worker: str, lo: int,
                 message: str) -> dict:
        """Report a non-transient worker error; fails the job."""
        return self._json("POST", f"/jobs/{job_id}/units",
                          {"worker": worker, "lo": lo, "error": message})

    def workers(self) -> List[dict]:
        return self._json("GET", "/workers")

    def wait(self, job_id: Union[int, str], timeout: float = 300.0,
             poll: float = 0.2) -> dict:
        """Poll until the job reaches a terminal state (or *timeout* s)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout:g}s")
            time.sleep(poll)

    def artifact(self, job_id: Union[int, str], name: str,
                 etag: Optional[str] = None
                 ) -> Tuple[Optional[bytes], Optional[str]]:
        """Fetch one artifact; returns ``(body, etag)``.

        Pass the previously returned *etag* to revalidate: an unchanged
        artifact answers ``304`` and ``(None, etag)`` — nothing is
        re-downloaded.
        """
        headers = {"If-None-Match": etag} if etag else None
        status, response_headers, body = self._request(
            "GET", f"/artifacts/{job_id}/{name}", headers=headers)
        new_etag = response_headers.get("ETag")
        if status == 304:
            return None, new_etag or etag
        return body, new_etag

    def fetch(self, job_id: Union[int, str], name: str,
              output: Union[str, Path]) -> Path:
        """Download one artifact to *output* and return the path."""
        body, _ = self.artifact(job_id, name)
        output = Path(output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_bytes(body or b"")
        return output
