"""Versioned artifact-schema registry.

Generalises the ``campaign-metrics`` v1 pattern (kind + version +
validate) to every artifact the framework persists: RTL campaign
reports, SWFI PVF reports, the syndrome database, checkpoint journals,
telemetry and service job records.  Each kind registers one
:class:`ArtifactSchema` — a named version, ``dump``/``load``/``validate``
callables and explicit step-wise migrations — and every layer's
``to_dict``/``from_dict`` delegates here.

Two dump shapes exist on purpose:

* :func:`dump_body` — the bare legacy payload, byte-identical to what
  the pre-registry code wrote.  Journals, service job results and every
  in-payload embedding use it, which is why PR-1/PR-2-era files keep
  round-tripping unchanged.
* :func:`dump_artifact` — the body wrapped in a
  ``{"kind": ..., "version": ...}`` envelope for standalone files.

:func:`load_artifact` accepts both: an enveloped payload declares its
version, a bare legacy payload is sniffed as version 1, newer-than-
supported versions fail with an actionable error, and older versions
walk the registered migration chain one step at a time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..errors import ArtifactError

__all__ = [
    "ArtifactSchema",
    "all_fingerprints",
    "dump_artifact",
    "dump_body",
    "get_schema",
    "load_artifact",
    "load_artifact_file",
    "register_schema",
    "registered_kinds",
    "save_artifact",
    "schema_fingerprint",
    "validate_artifact",
]

#: Envelope keys added by :func:`dump_artifact` and stripped before
#: handing a payload to a schema's ``load``.
_ENVELOPE_KEYS = ("kind", "version")


@dataclass
class ArtifactSchema:
    """One artifact kind: its current version, codecs and migrations."""

    kind: str
    version: int
    dump: Callable[[Any], dict]            # object -> body dict (v=current)
    load: Callable[[dict], Any]            # body dict (v=current) -> object
    validate: Optional[Callable[[dict], dict]] = None
    #: ``{from_version: fn}`` where ``fn`` lifts a payload one version up.
    migrations: Dict[int, Callable[[dict], dict]] = field(
        default_factory=dict)
    #: Version detector for payloads without an envelope.  Legacy
    #: pre-registry payloads carry no version at all, hence default 1.
    sniff_version: Callable[[dict], int] = lambda payload: 1
    #: True when the body itself carries ``kind``/``version`` keys
    #: (campaign-metrics always did); such bodies are never re-wrapped
    #: nor envelope-stripped.
    self_enveloped: bool = False
    #: Deterministic sample object used for schema fingerprinting.
    sample: Optional[Callable[[], Any]] = None


_SCHEMAS: Dict[str, ArtifactSchema] = {}
_BUILTINS_LOADED = False


def register_schema(schema: ArtifactSchema) -> ArtifactSchema:
    if schema.kind in _SCHEMAS:
        raise ArtifactError(
            f"artifact kind {schema.kind!r} is already registered")
    if schema.version < 1:
        raise ArtifactError("schema versions start at 1")
    _SCHEMAS[schema.kind] = schema
    return schema


def _ensure_builtins() -> None:
    """Late-import the built-in schema definitions (breaks import cycles:
    domain modules call into the registry from their ``to_dict`` bodies,
    and the schema definitions import those same domain modules).

    The flag is set only once the import has finished: until then every
    caller imports, and the import system's module lock makes a thread
    that arrives while another one is still importing the definitions
    wait until every built-in kind is registered (the service's HTTP
    threads race here).
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from . import schemas  # noqa: F401  (registers on import)
        _BUILTINS_LOADED = True


def get_schema(kind: str) -> ArtifactSchema:
    _ensure_builtins()
    try:
        return _SCHEMAS[kind]
    except KeyError:
        raise ArtifactError(
            f"unknown artifact kind {kind!r}; registered kinds: "
            f"{', '.join(sorted(_SCHEMAS)) or '(none)'}")


def registered_kinds() -> List[str]:
    _ensure_builtins()
    return sorted(_SCHEMAS)


# -- dumping ------------------------------------------------------------------
def dump_body(kind: str, obj: Any) -> dict:
    """Serialise *obj* to the bare (legacy-byte-identical) payload."""
    return get_schema(kind).dump(obj)


def dump_artifact(kind: str, obj: Any) -> dict:
    """Serialise *obj* with the ``kind``/``version`` envelope."""
    schema = get_schema(kind)
    body = schema.dump(obj)
    if schema.self_enveloped:
        return body
    if any(key in body for key in _ENVELOPE_KEYS):
        # the body owns an envelope key (a service job's "kind" is the
        # job type, not the artifact kind) — nest instead of merging
        return {"kind": schema.kind, "version": schema.version,
                "body": body}
    return {"kind": schema.kind, "version": schema.version, **body}


# -- loading ------------------------------------------------------------------
def _payload_version(schema: ArtifactSchema, payload: dict) -> int:
    declared = payload.get("kind")
    if declared == schema.kind and "version" in payload:
        return int(payload["version"])
    if (declared is not None and declared != schema.kind
            and declared in _SCHEMAS):
        # a genuine envelope of some other artifact kind — a body whose
        # own "kind" field holds a non-artifact value (e.g. a job type)
        # falls through to sniffing instead
        raise ArtifactError(
            f"expected a {schema.kind!r} artifact, got kind {declared!r}")
    return int(schema.sniff_version(payload))


def _migrate(schema: ArtifactSchema, payload: dict, version: int) -> dict:
    if version > schema.version:
        raise ArtifactError(
            f"{schema.kind} artifact has schema version {version}, but "
            f"this build supports only versions <= {schema.version}; "
            f"it was produced by a newer release — upgrade to load it")
    while version < schema.version:
        step = schema.migrations.get(version)
        if step is None:
            raise ArtifactError(
                f"no migration registered from {schema.kind} version "
                f"{version} to {version + 1}")
        payload = step(payload)
        version += 1
    return payload


def load_artifact(kind: str, payload: dict) -> Any:
    """Deserialise a payload of *kind*, enveloped or bare-legacy.

    Version resolution: an envelope's ``version`` wins; otherwise the
    schema's ``sniff_version`` decides (unversioned legacy payloads are
    version 1).  Older payloads are migrated step-wise to the current
    version before the schema's ``load`` runs; newer ones are rejected
    with an explicit error rather than mis-parsed.
    """
    schema = get_schema(kind)
    if not isinstance(payload, dict):
        raise ArtifactError(
            f"a {kind} artifact must be a JSON object, "
            f"not {type(payload).__name__}")
    version = _payload_version(schema, payload)
    payload = _migrate(schema, payload, version)
    if not schema.self_enveloped and payload.get("kind") == schema.kind:
        if isinstance(payload.get("body"), dict):
            payload = payload["body"]      # nested envelope (see dump)
        else:
            payload = {k: v for k, v in payload.items()
                       if k not in _ENVELOPE_KEYS}
    return schema.load(payload)


def validate_artifact(kind: str, payload: dict) -> dict:
    """Run the schema's validator (payload returned unchanged on success)."""
    schema = get_schema(kind)
    if schema.validate is None:
        return payload
    return schema.validate(payload)


# -- files --------------------------------------------------------------------
def save_artifact(path: Union[str, Path], kind: str, obj: Any,
                  indent: Optional[int] = None) -> Path:
    """Write *obj* as an enveloped JSON artifact file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dump_artifact(kind, obj), indent=indent)
                    + ("\n" if indent is not None else ""))
    return path


def load_artifact_file(path: Union[str, Path],
                       kind: Optional[str] = None) -> Any:
    """Load one artifact file; *kind* may be omitted for enveloped files."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load artifact from {path}: {exc}")
    if kind is None:
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ArtifactError(
                f"{path} carries no artifact kind; pass kind= explicitly")
        kind = str(payload["kind"])
    return load_artifact(kind, payload)


# -- fingerprints -------------------------------------------------------------
def schema_fingerprint(kind: str) -> str:
    """SHA-256 over the canonical dump of the schema's sample object.

    Any change to a schema's field set, key naming, coercions or
    envelope — anything that alters serialised bytes — changes the
    fingerprint.  CI pins these: a schema edit without a version bump +
    migration fails the schema-compat job.
    """
    schema = get_schema(kind)
    if schema.sample is None:
        raise ArtifactError(f"{kind} registers no sample object")
    payload = dump_artifact(kind, schema.sample())
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def all_fingerprints() -> Dict[str, str]:
    """``{kind: fingerprint}`` for every kind that registers a sample."""
    _ensure_builtins()
    return {kind: schema_fingerprint(kind)
            for kind in sorted(_SCHEMAS)
            if _SCHEMAS[kind].sample is not None}
