"""Registry behaviour: envelopes, version sniffing, migrations, errors."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import (
    ArtifactSchema,
    dump_artifact,
    dump_body,
    get_schema,
    load_artifact,
    load_artifact_file,
    register_schema,
    registered_kinds,
    save_artifact,
    schema_fingerprint,
)
from repro.errors import ArtifactError, CampaignError

SRC = Path(__file__).resolve().parents[2] / "src"

BUILTIN_KINDS = ["rtl-report", "pvf-report", "syndrome-db",
                 "campaign-journal", "campaign-metrics", "job-record"]


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(BUILTIN_KINDS) <= set(registered_kinds())

    def test_unknown_kind(self):
        with pytest.raises(ArtifactError, match="unknown artifact kind"):
            get_schema("flux-capacitor")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ArtifactError, match="already registered"):
            register_schema(ArtifactSchema(
                kind="rtl-report", version=1, dump=dict, load=dict))

    def test_fingerprints_are_stable_across_calls(self):
        for kind in BUILTIN_KINDS:
            assert schema_fingerprint(kind) == schema_fingerprint(kind)

    def test_concurrent_first_use_sees_every_builtin_kind(self):
        """Threads racing the lazy registration (the service's HTTP
        handlers do) all wait for the built-in kinds."""
        script = (
            "import threading\n"
            "from repro.artifacts import registry\n"
            "barrier, errors = threading.Barrier(8), []\n"
            "def first_use():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        registry.get_schema('job-record')\n"
            "    except Exception as exc:\n"
            "        errors.append(exc)\n"
            "threads = [threading.Thread(target=first_use)\n"
            "           for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(len(errors), errors[:1])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("0 "), done.stdout


class TestEnvelope:
    def test_dump_artifact_wraps_body(self):
        sample = get_schema("pvf-report").sample()
        enveloped = dump_artifact("pvf-report", sample)
        assert enveloped["kind"] == "pvf-report"
        assert enveloped["version"] == 1
        body = dump_body("pvf-report", sample)
        assert {k: v for k, v in enveloped.items()
                if k not in ("kind", "version")} == body

    def test_enveloped_and_bare_load_identically(self):
        sample = get_schema("pvf-report").sample()
        bare = load_artifact("pvf-report", dump_body("pvf-report", sample))
        enveloped = load_artifact("pvf-report",
                                  dump_artifact("pvf-report", sample))
        assert bare.to_dict() == enveloped.to_dict()

    def test_body_owning_kind_key_nests(self):
        """A job record's own "kind" (the job type) never collides."""
        sample = get_schema("job-record").sample()
        enveloped = dump_artifact("job-record", sample)
        assert enveloped["kind"] == "job-record"
        assert enveloped["body"]["kind"] == "pvf"
        reloaded = load_artifact("job-record", enveloped)
        assert reloaded.to_dict() == sample.to_dict()

    def test_bare_body_with_foreign_kind_value_still_loads(self):
        sample = get_schema("job-record").sample()
        body = dump_body("job-record", sample)
        assert body["kind"] == "pvf"      # the job type, not a schema
        assert load_artifact("job-record", body).to_dict() == body

    def test_wrong_envelope_kind_rejected(self):
        sample = get_schema("pvf-report").sample()
        enveloped = dump_artifact("pvf-report", sample)
        with pytest.raises(ArtifactError,
                           match="expected a 'rtl-report' artifact"):
            load_artifact("rtl-report", enveloped)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ArtifactError, match="JSON object"):
            load_artifact("pvf-report", [1, 2, 3])

    def test_self_enveloped_metrics_not_double_wrapped(self):
        sample = get_schema("campaign-metrics").sample()
        enveloped = dump_artifact("campaign-metrics", sample)
        assert enveloped == dump_body("campaign-metrics", sample)
        assert enveloped["kind"] == "campaign-metrics"


class TestVersioning:
    def test_unversioned_legacy_payload_sniffs_to_v1(self):
        sample = get_schema("pvf-report").sample()
        body = dump_body("pvf-report", sample)
        assert "version" not in body
        assert load_artifact("pvf-report", body).to_dict() == body

    def test_future_version_rejected_with_upgrade_message(self):
        sample = get_schema("pvf-report").sample()
        enveloped = dump_artifact("pvf-report", sample)
        enveloped["version"] = 99
        with pytest.raises(ArtifactError) as excinfo:
            load_artifact("pvf-report", enveloped)
        message = str(excinfo.value)
        assert "schema version 99" in message
        assert "supports only versions <= 1" in message
        assert "upgrade" in message

    def test_future_metrics_version_rejected(self):
        payload = dict(dump_body("campaign-metrics",
                                 get_schema("campaign-metrics").sample()))
        payload["version"] = 7
        with pytest.raises(ArtifactError, match="supports only versions"):
            load_artifact("campaign-metrics", payload)


class TestMigrations:
    """A synthetic two-version kind exercises the migration chain."""

    @pytest.fixture(scope="class")
    def kind(self):
        name = "test-widget"
        if name not in registered_kinds():
            def migrate_1_to_2(payload):
                # v2 renamed "colour" -> "color"
                payload = dict(payload)
                payload["color"] = payload.pop("colour")
                return payload

            register_schema(ArtifactSchema(
                kind=name, version=2,
                dump=lambda obj: dict(obj),
                load=dict,
                migrations={1: migrate_1_to_2},
                sample=lambda: {"color": "red"}))
        return name

    def test_old_payload_migrates_stepwise(self, kind):
        loaded = load_artifact(kind, {"kind": kind, "version": 1,
                                      "colour": "red"})
        assert loaded == {"color": "red"}

    def test_current_payload_loads_directly(self, kind):
        loaded = load_artifact(kind, {"kind": kind, "version": 2,
                                      "color": "blue"})
        assert loaded == {"color": "blue"}

    def test_missing_migration_step_is_explicit(self):
        name = "test-gadget"
        if name not in registered_kinds():
            register_schema(ArtifactSchema(
                kind=name, version=3, dump=dict, load=dict,
                migrations={2: lambda p: p}))  # 1 -> 2 step missing
        with pytest.raises(ArtifactError,
                           match="no migration registered from "
                                 "test-gadget version 1 to 2"):
            load_artifact(name, {"kind": name, "version": 1})


class TestFiles:
    def test_save_and_load_artifact_file(self, tmp_path):
        sample = get_schema("pvf-report").sample()
        path = save_artifact(tmp_path / "report.json", "pvf-report",
                             sample, indent=2)
        assert json.loads(path.read_text())["kind"] == "pvf-report"
        # kind inferred from the envelope
        assert load_artifact_file(path).to_dict() == sample.to_dict()
        # explicit kind also accepted
        loaded = load_artifact_file(path, kind="pvf-report")
        assert loaded.to_dict() == sample.to_dict()

    def test_bare_file_requires_explicit_kind(self, tmp_path):
        sample = get_schema("pvf-report").sample()
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(dump_body("pvf-report", sample)))
        with pytest.raises(ArtifactError, match="pass kind="):
            load_artifact_file(path)
        assert (load_artifact_file(path, kind="pvf-report").to_dict()
                == sample.to_dict())

    def test_unreadable_file_is_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot load artifact"):
            load_artifact_file(tmp_path / "missing.json",
                               kind="pvf-report")


class TestValidate:
    def test_metrics_validator_still_raises_campaign_error(self):
        from repro.campaign.telemetry import validate_metrics

        with pytest.raises(CampaignError, match="not a campaign-metrics"):
            validate_metrics({"kind": "something-else"})

    def test_valid_metrics_pass_through(self):
        payload = dump_body("campaign-metrics",
                            get_schema("campaign-metrics").sample())
        from repro.campaign.telemetry import validate_metrics

        assert validate_metrics(payload) is payload
