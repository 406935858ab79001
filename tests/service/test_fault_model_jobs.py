"""Fault-model job plumbing: stuck-at/burst rtl jobs through the service."""

import json

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient, ServiceDaemon
from repro.service.scheduler import normalize_params


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("faultmodel-service")
    with ServiceDaemon(workdir, port=0, poll_interval=0.05) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def client(daemon):
    return ServiceClient(daemon.url, timeout=30.0)


class TestNormalizeParams:
    def test_default_is_transient(self):
        params = normalize_params("rtl", {"module": "fp32", "faults": 5})
        assert params["fault_model"] == "transient"
        assert params["apps"] is None

    def test_stuck_at_accepted_without_explicit_suite(self):
        # apps stays None: run_signature_campaign resolves the module's
        # default suite at execution time
        params = normalize_params(
            "rtl", {"module": "sfu_controller", "faults": 5,
                    "fault_model": "stuck-at"})
        assert params["fault_model"] == "stuck-at"
        assert params["apps"] is None

    def test_unknown_model_rejected(self):
        with pytest.raises(ServiceError, match="unknown fault model"):
            normalize_params("rtl", {"module": "fp32", "faults": 5,
                                     "fault_model": "cosmic"})

    def test_apps_only_valid_for_stuck_at(self):
        with pytest.raises(ServiceError, match="apps"):
            normalize_params("rtl", {"module": "fp32", "faults": 5,
                                     "apps": ["FADD/M"]})

    def test_bad_app_spec_rejected(self):
        with pytest.raises(ServiceError):
            normalize_params(
                "rtl", {"module": "sfu_controller", "faults": 5,
                        "fault_model": "stuck-at", "apps": ["BOGUS/M"]})

    def test_stuck_at_incompatible_with_adaptive(self):
        with pytest.raises(ServiceError, match="target_ci"):
            normalize_params(
                "rtl", {"module": "sfu_controller", "faults": 5,
                        "fault_model": "stuck-at", "target_ci": 0.05})

    def test_burst_params_validated(self):
        with pytest.raises(ServiceError, match="burst_width"):
            normalize_params("rtl", {"module": "fp32", "faults": 5,
                                     "fault_model": "burst",
                                     "burst_width": 0})

    def test_burst_params_only_for_burst(self):
        with pytest.raises(ServiceError, match="burst"):
            normalize_params("rtl", {"module": "fp32", "faults": 5,
                                     "burst_width": 3})


class TestStuckAtJobOverHttp:
    def test_signature_artifact_served(self, daemon, client):
        from repro.rtl import run_signature_campaign

        job = client.submit("rtl", module="sfu_controller", faults=3,
                            seed=4, fault_model="stuck-at")
        done = client.wait(job["id"], timeout=240)
        assert done["state"] == "done"
        result = done["result"]
        assert result["fault_model"] == "stuck-at"
        assert result["module"] == "sfu_controller"
        assert set(result["per_app"]) == set(result["apps"])

        body, _etag = client.artifact(job["id"], "signature")
        envelope = json.loads(body)
        assert envelope["kind"] == "signature-report"
        direct = run_signature_campaign("sfu_controller", 3, seed=4)
        from repro.artifacts import load_artifact

        served = load_artifact("signature-report", envelope)
        assert served.to_dict() == direct.to_dict()

    def test_report_artifact_announces_signature_schema(self, daemon,
                                                        client):
        from urllib.request import urlopen

        job = client.submit("rtl", module="sfu_controller", faults=2,
                            seed=1, fault_model="stuck-at")
        client.wait(job["id"], timeout=240)
        with urlopen(f"{daemon.url}/artifacts/{job['id']}/report",
                     timeout=30) as response:
            assert (response.headers["X-Artifact-Schema"]
                    == "signature-report")
            assert response.headers["X-Artifact-Version"] == "1"


class TestBurstJobOverHttp:
    def test_burst_job_matches_direct_campaign(self, daemon, client):
        from repro.rtl import make_microbenchmark, run_campaign
        from repro.gpu import Opcode

        job = client.submit("rtl", opcode="FADD", module="fp32",
                            faults=20, seed=9, fault_model="burst",
                            burst_width=3, burst_window=2)
        done = client.wait(job["id"], timeout=240)
        assert done["state"] == "done"
        assert done["result"]["fault_model"] == "burst"

        bench = make_microbenchmark(Opcode.FADD, "M", seed=9)
        direct = run_campaign(bench, "fp32", 20, seed=9,
                              fault_model="burst", burst_width=3,
                              burst_window=2)
        body, _etag = client.artifact(job["id"], "report")
        assert json.loads(body)["report"] == direct.to_dict()

    def test_transient_job_result_shape_unchanged(self, daemon, client):
        # no fault_model key leaks into pre-refactor result payloads
        job = client.submit("rtl", opcode="FADD", module="fp32",
                            faults=5, seed=2)
        done = client.wait(job["id"], timeout=240)
        assert done["state"] == "done"
        assert "fault_model" not in done["result"]
