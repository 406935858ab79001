"""Level-agnostic JSONL checkpoint journal for batched campaigns.

Line one is a header identifying the campaign (level, seed, batch plan,
whatever the caller puts in it); every further line is one completed work
unit's report keyed by unit index.  Resuming validates the header and
replays completed units, so an interrupted multi-hour campaign — an RTL
grid just as much as a 6000-injection SWFI run — restarts where it
stopped instead of from scratch.

A journal written by a killed process may end in a truncated line; such
lines (and any other line that fails to parse or decode) are skipped
with a :class:`UserWarning` rather than aborting the resume — the unit
they described simply re-runs.  A last line that parses but lacks its
newline (a write cut off just before it) is kept, yet counts as damage
too, so the next record never glues onto it.  When damage is detected
the journal is compacted on load so it does not warn again on the next
resume.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..errors import CampaignError

__all__ = ["CampaignCheckpoint"]


class CampaignCheckpoint:
    """Append-only JSONL journal of finished campaign work units.

    ``kind`` names the artifact schema of the journaled reports (e.g.
    ``"pvf-report"``); it is stamped into the header as ``schema`` and,
    unless an explicit ``decode`` is given, batch payloads are decoded
    through :func:`repro.artifacts.load_artifact` for that kind — so a
    journal written before a schema bump replays through the kind's
    migration chain.  ``decode`` (a ``dict -> report`` callable) still
    overrides for non-artifact payloads; with neither, raw dicts are
    returned.  Reports are journaled via their ``to_dict``.

    Durability: every :meth:`record` is flushed to the OS immediately,
    so a hard-killed process loses at most the torn final line — never
    a buffer's worth of finished units; :meth:`close` (and compaction)
    additionally fsync, making a cleanly-closed journal survive power
    loss.
    """

    VERSION = 1

    def __init__(self, path: Union[str, Path], header: dict,
                 decode: Optional[Callable[[dict], Any]] = None,
                 resume: bool = False,
                 kind: Optional[str] = None) -> None:
        self.path = Path(path)
        self.kind = kind
        self.header = dict(header, version=self.VERSION)
        if kind is not None:
            self.header["schema"] = kind
        if decode is None and kind is not None:
            from ..artifacts import load_artifact

            decode = lambda payload: load_artifact(kind, payload)  # noqa: E731
        self.decode = decode
        self.completed: Dict[int, Any] = {}
        self._fh = None
        if resume and self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")
            self._fh.write(json.dumps(
                {"kind": "header", **self.header}) + "\n")
            self._fh.flush()

    def _load(self) -> None:
        records = []
        damaged = False
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    damaged = True  # unterminated: compact before appending
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    damaged = True
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt "
                        "checkpoint line (truncated write?); its batch "
                        "will re-run")
        if not records or records[0].get("kind") != "header":
            raise CampaignError(
                f"{self.path} is not a campaign checkpoint")
        # rejects journals from a newer release with an explicit message
        from ..artifacts import load_artifact
        header_record = load_artifact("campaign-journal", records[0])
        stored = {k: v for k, v in header_record.items() if k != "kind"}
        # the "schema" stamp is ours, not the campaign's identity —
        # pre-artifact-layer journals (which lack it) must keep resuming
        if ({k: v for k, v in stored.items() if k != "schema"}
                != {k: v for k, v in self.header.items() if k != "schema"}):
            raise CampaignError(
                f"checkpoint {self.path} belongs to a different campaign: "
                f"stored {stored}, requested {self.header}")
        raw: Dict[int, dict] = {}
        for record in records[1:]:
            if record.get("kind") != "batch":
                continue
            try:
                index = int(record["index"])
                report = record["report"]
                decoded = self.decode(report) if self.decode else report
            except (KeyError, TypeError, ValueError) as exc:
                damaged = True
                warnings.warn(
                    f"{self.path}: skipping undecodable batch record "
                    f"({type(exc).__name__}: {exc}); its batch will "
                    "re-run")
                continue
            raw[index] = report
            self.completed[index] = decoded
        if damaged:
            self._rewrite(raw)

    def _rewrite(self, raw: Dict[int, dict]) -> None:
        """Compact the journal to header + valid batches only."""
        with self.path.open("w") as fh:
            fh.write(json.dumps({"kind": "header", **self.header}) + "\n")
            for index in sorted(raw):
                fh.write(json.dumps({
                    "kind": "batch",
                    "index": index,
                    "report": raw[index],
                }) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def record(self, index: int, report: Any) -> None:
        """Journal one finished unit (``report`` must offer ``to_dict``).

        The line is flushed before returning: a SIGKILL right after a
        unit completes can cost at most the line being written, not
        every unit since the stdio buffer last drained.
        """
        self.completed[index] = report
        payload = report.to_dict() if hasattr(report, "to_dict") else report
        if self._fh is None or self._fh.closed:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps({
            "kind": "batch",
            "index": index,
            "report": payload,
        }) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush and fsync the journal (idempotent)."""
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
