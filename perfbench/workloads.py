"""The measuring process: one workload in one fresh interpreter.

``run.py`` starts this file once per measurement and a few more times
with ``--setup-only`` to sample set-up time; it is not meant to be run
by hand.  The last line of its standard output is one JSON object that
``run.py`` folds into the benchmark result.

The in-process workloads execute *rounds*.  Round r runs input set
r mod ROUND_SEEDS, generated only from ``--seed``, so every run with the
same seed produces byte-identical reports.  The number of rounds follows
from ``--seconds`` and the workload's reference round duration, so every
host measures the same work.  The service workload runs its closed loop
in whole cycles of its job mix.  Digests and invariant checks run outside
the timed intervals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (benchmark-local, next to this file)

#: The seed whose report digests are committed in ``digests.json``.
COMMITTED_SEED = 1
DIGEST_FILE = HERE / "digests.json"

# -- workload parameters ----------------------------------------------------
#: rtl-grid: each call is one journaled ``run_grid``/``run_tmxm_grid``
#: invocation streamed into one syndrome-database builder.  Fault counts
#: are sized per module so that one cell takes 0.1-0.5 s on one core.
FU_OPCODES = ["FADD", "FMUL", "FFMA", "IADD", "IMUL", "IMAD"]
ALL_OPCODES = FU_OPCODES + ["FSIN", "FEXP", "GLD", "GST", "BRA", "ISET"]
RTL_CALLS = [
    {"name": "fu", "family": "fu", "entry": "run_grid",
     "opcodes": FU_OPCODES, "input_ranges": ["S", "M", "L"],
     "modules": ["fp32", "int"], "n_faults": 2800},
    {"name": "scheduler", "family": "control", "entry": "run_grid",
     "opcodes": ALL_OPCODES, "input_ranges": ["M"],
     "modules": ["scheduler"], "n_faults": 800},
    {"name": "pipeline", "family": "control", "entry": "run_grid",
     "opcodes": ALL_OPCODES, "input_ranges": ["M"],
     "modules": ["pipeline"], "n_faults": 30},
    {"name": "sfu", "family": "control", "entry": "run_grid",
     "opcodes": ALL_OPCODES, "input_ranges": ["M"],
     "modules": ["sfu", "sfu_controller"], "n_faults": 120},
    {"name": "tmxm", "family": "control", "entry": "run_tmxm_grid",
     "tiles": ["Max", "Zero", "Random"],
     "modules": ["scheduler", "pipeline"], "n_faults": 4},
]

#: swfi-pvf: the Table III applications under both Fig. 10 models, the
#: same number of injections per campaign.  Batch sizes make one engine
#: unit about 0.2 s; a whole LUD campaign is one 0.06 s unit.
PVF_APPS = {"MxM": 5, "LUD": 20, "Quicksort": 4, "Lava": 7, "Gaussian": 20,
            "Hotspot": 5}
PVF_MODELS = ["bitflip", "syndrome"]
PVF_INJECTIONS = 20

#: service-fleet: a closed loop over a fixed job mix; every job has four
#: engine units, claimed two at a time.
SERVICE_MIX = [
    {"kind": "rtl", "opcode": "FFMA", "range": "M", "module": "fp32",
     "faults": 500, "batch_size": 125},
    {"kind": "pvf", "app": "Gaussian", "model": "bitflip",
     "injections": 16, "batch_size": 4},
    {"kind": "rtl", "opcode": "IADD", "range": "M", "module": "scheduler",
     "faults": 200, "batch_size": 50},
    {"kind": "pvf", "app": "LUD", "model": "syndrome",
     "injections": 16, "batch_size": 4},
    {"kind": "rtl", "opcode": "IMAD", "range": "L", "module": "int",
     "faults": 500, "batch_size": 125},
    {"kind": "pvf", "app": "Lava", "model": "bitflip",
     "injections": 8, "batch_size": 2},
    {"kind": "rtl", "opcode": "FEXP", "range": "M",
     "module": "sfu_controller", "faults": 80, "batch_size": 20},
    {"kind": "pvf", "app": "LUD", "model": "bitflip",
     "injections": 16, "batch_size": 4},
]
UNITS_PER_CLAIM = 2
OUTSTANDING = 2              # jobs in flight: the cores of a 2-vCPU VM
MIN_SAMPLES = 100            # latency samples per run: ten beyond p90
ROUND_SEEDS = 6              # in-process round r draws input set r % 6
CLIENT_POLL_S = 0.05         # client: GET /jobs/<id> interval
WORKER_POLL_S = 0.05         # worker: sleep after an empty claim
DAEMON_POLL_S = 0.5          # coordinator: lease-reaper interval
LEASE_S = 30.0               # worker lease per claim
READY_POLL_S = 0.01          # readiness observation interval
TRACE_CYCLES = 3             # traced service runs: mix cycles per fleet


def derive_seed(seed: int, label: str) -> int:
    """Campaign seed for *label*, generated from the benchmark seed."""
    return random.Random(f"{seed}/{label}").randrange(2 ** 31)


def digest(payload) -> str:
    """SHA-256 of a JSON payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """The *q* quantile (0.01-0.99) by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(q * 100) - 1]


def committed_digests(workload: str, seed: int) -> Optional[Dict]:
    if seed != COMMITTED_SEED or not DIGEST_FILE.exists():
        return None
    return json.loads(DIGEST_FILE.read_text()).get(workload)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def journal_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*.jsonl"))


class Checker:
    """Counts operations and failed operations; keeps the reasons."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, key: str, value: str) -> None:
        """One operation: its digest against the committed or first one."""
        self.attempted += 1
        reference = self.seen.setdefault(key, value)
        if self.expected is not None:
            reference = self.expected.get(key)
        if reference != value:
            self.fail(f"digest mismatch for {key}")

    def invariant(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


def new_stats() -> Dict:
    return {"faults": 0, "seconds": 0.0, "unit_s": [], "round_s": [],
            "families": {}, "latency_s": [], "jobs": [], "outcomes": {},
            "journal_bytes": 0, "submitted": 0}


def count_outcomes(reports) -> Dict[str, int]:
    return {"masked": sum(r.n_masked for r in reports),
            "sdc": sum(r.n_sdc for r in reports),
            "due": sum(r.n_due for r in reports)}


def _replay_journal(path: Path, kind: str) -> Dict[int, object]:
    """Units of a finished campaign journal, decoded by the program."""
    from repro.campaign.checkpoint import CampaignCheckpoint

    with path.open() as fh:
        header = json.loads(fh.readline())
    for key in ("kind", "version", "schema"):
        header.pop(key, None)
    journal = CampaignCheckpoint(path, header, kind=kind, resume=True)
    journal.close()
    return journal.completed


# -- rtl-grid ---------------------------------------------------------------
class RtlGrid:
    """The pipeline's RTL stage: journaled grids streamed into a builder."""

    #: seconds of one round on the 2-vCPU reference VM, and the rounds
    #: that give MIN_SAMPLES cells
    ROUND_S = 13.0
    MIN_ROUNDS = 2

    def __init__(self, seed: int) -> None:
        import repro.rtl.campaign  # noqa: F401  (set-up pays the imports)

        self.plan = [[dict(call, seed=derive_seed(
                          seed, f"round{r}/rtl/{call['name']}"))
                      for call in RTL_CALLS] for r in range(ROUND_SEEDS)]

    def _run_call(self, call: Dict, **kwargs) -> None:
        from repro.gpu.isa import Opcode
        from repro.rtl.campaign import run_grid, run_tmxm_grid

        if call["entry"] == "run_tmxm_grid":
            run_tmxm_grid(tile_kinds=call["tiles"], modules=call["modules"],
                          n_faults=call["n_faults"], seed=call["seed"],
                          n_jobs=1, **kwargs)
        else:
            run_grid(opcodes=[Opcode(op) for op in call["opcodes"]],
                     input_ranges=call["input_ranges"],
                     modules=call["modules"], n_faults=call["n_faults"],
                     seed=call["seed"], n_jobs=1, **kwargs)

    def round(self, index: int, workdir: Path, checker: Checker,
              stats: Dict) -> None:
        """Every call journaled and streamed into one builder, as
        ``run_pipeline`` runs its RTL stage."""
        from repro.campaign.telemetry import CampaignMetrics
        from repro.syndrome.builder import StreamingDatabaseBuilder

        plan = self.plan[index % ROUND_SEEDS]
        tag = f"r{index % ROUND_SEEDS}"
        workdir.mkdir(parents=True)
        builder = StreamingDatabaseBuilder()
        streamed: Dict[str, Dict[int, object]] = {}
        round_s = 0.0
        for call in plan:
            reports: Dict[int, object] = {}
            streamed[call["name"]] = reports
            add = (builder.add_tmxm_report
                   if call["entry"] == "run_tmxm_grid"
                   else builder.add_report)

            def consume(index, report, reports=reports, add=add):
                reports[index] = report
                add(report)

            metrics = CampaignMetrics(f"rtl/{call['name']}")
            started = time.perf_counter()
            self._run_call(call, checkpoint=workdir / f"{call['name']}.jsonl",
                           metrics=metrics, consume=consume, collect=False)
            seconds = time.perf_counter() - started
            faults = call["n_faults"] * len(reports)
            family = stats["families"].setdefault(call["family"], [0, 0.0])
            family[0] += faults
            family[1] += seconds
            stats["faults"] += faults
            stats["unit_s"].extend(unit.seconds for unit in metrics.units)
            round_s += seconds
        started = time.perf_counter()
        builder.build().save(workdir / "syndrome_db.json")
        round_s += time.perf_counter() - started
        stats["seconds"] += round_s
        stats["round_s"].append(round_s)

        # -- checks, outside the timed intervals --
        cells = []
        for call in plan:
            reports = streamed[call["name"]]
            replayed = _replay_journal(workdir / f"{call['name']}.jsonl",
                                       "rtl-report")
            for unit in sorted(reports):
                report = reports[unit]
                key = (f"{tag}:{call['name']}:{report.instruction}/"
                       f"{report.input_range}/{report.module}")
                value = digest(report.to_dict())
                checker.check(key, value)
                outcomes = report.n_masked + report.n_sdc + report.n_due
                checker.invariant(
                    report.n_injections == call["n_faults"] == outcomes,
                    f"{key}: {outcomes} outcomes for {call['n_faults']} "
                    f"faults")
                checker.invariant(
                    unit in replayed
                    and digest(replayed[unit].to_dict()) == value,
                    f"{key}: journal replay differs from the streamed "
                    f"report")
                cells.append(report)
        checker.check(f"{tag}:syndrome_db", digest(json.loads(
            (workdir / "syndrome_db.json").read_text())))
        if index == 0:
            stats["outcomes"] = count_outcomes(cells)
        stats["journal_bytes"] += journal_bytes(workdir)
        shutil.rmtree(workdir)

    def profile_items(self) -> List[Callable[[], object]]:
        """One FU cell, one control cell and one t-MxM cell."""
        fu, pipeline, tmxm = (next(c for c in self.plan[0] if c["name"] == n)
                              for n in ("fu", "pipeline", "tmxm"))
        return [
            lambda: self._run_call(dict(fu, opcodes=["FFMA"],
                                        input_ranges=["M"],
                                        modules=["fp32"])),
            lambda: self._run_call(dict(pipeline, opcodes=["FADD"])),
            lambda: self._run_call(dict(tmxm, tiles=["Random"],
                                        modules=["pipeline"])),
        ]

    def layer_extras(self, untraced: Dict) -> Dict[str, float]:
        families = untraced["families"]
        return {f"rtl.{name}.faults_per_s": faults / seconds
                for name, (faults, seconds) in families.items()}


# -- swfi-pvf ---------------------------------------------------------------
class SwfiPvf:
    """Fig. 10: every Table III app under both fault models."""

    #: seconds of one round on the 2-vCPU reference VM, and the rounds
    #: that give MIN_SAMPLES units
    ROUND_S = 8.5
    MIN_ROUNDS = 3

    def __init__(self, seed: int) -> None:
        from repro import datafiles  # set-up pays the imports

        self.database = datafiles.load_database()
        self.fresh_database = True
        self.plan = [[{"app": app, "model": model,
                       "app_seed": derive_seed(seed, f"round{r}/app/{app}"),
                       "seed": derive_seed(seed,
                                           f"round{r}/pvf/{app}/{model}"),
                       "injections": PVF_INJECTIONS, "batch_size": batch}
                      for app, batch in PVF_APPS.items()
                      for model in PVF_MODELS] for r in range(ROUND_SEEDS)]

    def _campaign(self, campaign: Dict, **kwargs):
        from repro.apps import make_application
        from repro.swfi.campaign import run_pvf_campaign
        from repro.swfi.models import RelativeErrorSyndrome, SingleBitFlip

        app = make_application(campaign["app"], seed=campaign["app_seed"])
        model = (SingleBitFlip() if campaign["model"] == "bitflip"
                 else RelativeErrorSyndrome(self.database))
        return run_pvf_campaign(app, model, campaign["injections"],
                                seed=campaign["seed"], n_jobs=1,
                                batch_size=campaign["batch_size"], **kwargs)

    def round(self, index: int, workdir: Path, checker: Checker,
              stats: Dict) -> None:
        from repro import datafiles
        from repro.campaign.telemetry import CampaignMetrics
        from repro.swfi.campaign import PVFReport

        if not self.fresh_database:
            # a fresh database per round: its lookup caches start empty
            self.database = datafiles.load_database()
        self.fresh_database = False
        workdir.mkdir(parents=True)
        done = []
        round_s = 0.0
        for campaign in self.plan[index % ROUND_SEEDS]:
            metrics = CampaignMetrics(f"pvf/{campaign['app']}")
            journal = (workdir / f"pvf_{campaign['app']}_"
                                 f"{campaign['model']}.jsonl")
            started = time.perf_counter()
            report = self._campaign(campaign, checkpoint=journal,
                                    metrics=metrics)
            round_s += time.perf_counter() - started
            stats["faults"] += report.n_injections
            stats["unit_s"].extend(unit.seconds for unit in metrics.units)
            done.append((campaign, journal, report))
        stats["seconds"] += round_s
        stats["round_s"].append(round_s)

        for campaign, journal, report in done:
            key = (f"r{index % ROUND_SEEDS}:{campaign['app']}/"
                   f"{campaign['model']}")
            value = digest(report.to_dict())
            checker.check(key, value)
            outcomes = report.n_masked + report.n_sdc + report.n_due
            checker.invariant(
                report.n_injections == campaign["injections"] == outcomes,
                f"{key}: {outcomes} outcomes for {campaign['injections']} "
                f"injections")
            replayed = _replay_journal(journal, "pvf-report")
            merged = PVFReport.merge([replayed[i] for i in sorted(replayed)])
            checker.invariant(digest(merged.to_dict()) == value,
                              f"{key}: journal replay differs from the "
                              f"report")
        if index == 0:
            stats["outcomes"] = count_outcomes([r for _, _, r in done])
        stats["journal_bytes"] += journal_bytes(workdir)
        shutil.rmtree(workdir)

    def profile_items(self) -> List[Callable[[], object]]:
        """One PVF campaign: MxM under the syndrome model."""
        campaign = next(c for c in self.plan[0]
                        if (c["app"], c["model"]) == ("MxM", "syndrome"))
        return [lambda: self._campaign(campaign)]

    def layer_extras(self, untraced: Dict) -> Dict[str, float]:
        return {}


# -- service-fleet ----------------------------------------------------------
def service_plan(seed: int) -> List[Dict]:
    plan = []
    for index, entry in enumerate(SERVICE_MIX):
        params = {k: v for k, v in entry.items() if k != "kind"}
        params["seed"] = derive_seed(seed, f"job/{index}")
        params["units_per_claim"] = UNITS_PER_CLAIM
        plan.append({"kind": entry["kind"], "params": params})
    return plan


def job_size(job: Dict) -> int:
    params = job["params"]
    return params["faults"] if job["kind"] == "rtl" else params["injections"]


def direct_report(job: Dict):
    """The mix entry's report from a direct in-process campaign run."""
    from repro.apps import make_application
    from repro.datafiles import load_database
    from repro.gpu.isa import Opcode
    from repro.rtl.campaign import run_campaign
    from repro.rtl.microbench import make_microbenchmark
    from repro.swfi.campaign import run_pvf_campaign
    from repro.swfi.models import RelativeErrorSyndrome, SingleBitFlip

    params = job["params"]
    if job["kind"] == "rtl":
        bench = make_microbenchmark(Opcode(params["opcode"]),
                                    params["range"], seed=params["seed"])
        return run_campaign(bench, params["module"], params["faults"],
                            seed=params["seed"],
                            batch_size=params["batch_size"])
    app = make_application(params["app"], seed=params["seed"])
    model = (SingleBitFlip() if params["model"] == "bitflip"
             else RelativeErrorSyndrome(load_database()))
    return run_pvf_campaign(app, model, params["injections"],
                            seed=params["seed"],
                            batch_size=params["batch_size"])


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Fleet:
    """Coordinator + one worker, started through the benchmark launcher."""

    def __init__(self, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.service_dir = workdir / "service"
        self.trace = trace
        self.url = f"http://127.0.0.1:{free_port()}"
        self.ready_file = workdir / "worker.ready"
        self.procs: Dict[str, subprocess.Popen] = {}
        self.logs = []

    def span_file(self, role: str) -> Path:
        return self.workdir / f"{role}.spans"

    def _launch(self, role: str, cli_args: List[str]) -> None:
        cmd = [sys.executable, str(HERE / "launcher.py")]
        if role == "worker":
            cmd += ["--ready-file", str(self.ready_file),
                    "--after-health", self.url]
        if self.trace:
            cmd += ["--trace-file", str(self.span_file(role))]
        log = (self.workdir / f"{role}.log").open("w")
        self.logs.append(log)
        self.procs[role] = subprocess.Popen(
            cmd + ["--"] + cli_args, stdout=log, stderr=subprocess.STDOUT,
            cwd=str(ROOT))

    def start(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._launch("coordinator", [
            "serve", "--workdir", str(self.service_dir), "--port",
            self.url.rsplit(":", 1)[1], "--quiet", "--no-scheduler",
            "--poll-interval", str(DAEMON_POLL_S)])
        self._launch("worker", [
            "worker", "--url", self.url, "--poll", str(WORKER_POLL_S),
            "--lease", str(LEASE_S), "--name", "bench-worker"])

    def wait_ready(self, client, timeout: float = 120.0) -> None:
        """Observe /health and the worker's first claim."""
        from repro.errors import ServiceError

        deadline = time.monotonic() + timeout
        healthy = False
        while time.monotonic() < deadline:
            for role, proc in self.procs.items():
                if proc.poll() is not None:
                    raise RuntimeError(f"{role} exited with "
                                       f"{proc.returncode}")
            if not healthy:
                try:
                    healthy = client.health()["status"] == "ok"
                except ServiceError:
                    pass
            if healthy and self.ready_file.exists():
                return
            time.sleep(READY_POLL_S)
        raise RuntimeError("service fleet did not become ready")

    def proc_status(self, role: str) -> Dict[str, float]:
        """Peak RSS (MiB) and CPU seconds of one fleet process."""
        pid = self.procs[role].pid
        status = Path(f"/proc/{pid}/status").read_text()
        hwm = next(line for line in status.splitlines()
                   if line.startswith("VmHWM:"))
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return {"rss_mb": int(hwm.split()[1]) / 1024.0,
                "cpu_s": (int(utime) + int(stime))
                / os.sysconf("SC_CLK_TCK")}

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()


def service_loop(client, plan: List[Dict], seconds: float, min_jobs: int,
                 checker: Checker, stats: Dict) -> None:
    """Closed loop: OUTSTANDING jobs in flight, whole mix cycles."""
    from repro.errors import ServiceError
    from repro.service import TERMINAL_STATES

    outstanding: Dict[int, Tuple[int, float]] = {}
    submitted = 0
    started = time.monotonic()

    def want_more() -> bool:
        if submitted % len(plan):
            return True              # finish the current mix cycle
        return (time.monotonic() - started < seconds
                or submitted < min_jobs)

    while True:
        while len(outstanding) < OUTSTANDING and want_more():
            entry = submitted % len(plan)
            submitted += 1
            try:
                record = client.submit(plan[entry]["kind"],
                                       **plan[entry]["params"])
            except ServiceError as exc:
                checker.attempted += 1
                checker.fail(f"submit refused: {exc}")
                continue
            outstanding[record["id"]] = (entry, time.monotonic())
        if not outstanding:
            break
        finished = None
        for job_id in list(outstanding):
            try:
                record = client.job(job_id)
            except ServiceError as exc:
                outstanding.pop(job_id)
                checker.attempted += 1
                checker.fail(f"poll of job {job_id} refused: {exc}")
                break
            if record["state"] in TERMINAL_STATES:
                finished = (job_id, record, time.time())
                break
        else:
            time.sleep(CLIENT_POLL_S)
        if finished is None:
            continue
        job_id, record, seen_at = finished
        entry, submitted_at = outstanding.pop(job_id)
        if record["state"] != "done":
            checker.attempted += 1
            checker.fail(f"job {job_id} ended {record['state']}: "
                         f"{record.get('error')}")
            continue
        try:
            body, _ = client.artifact(job_id, "report")
        except ServiceError as exc:
            checker.attempted += 1
            checker.fail(f"fetch of job {job_id} refused: {exc}")
            continue
        stats["latency_s"].append(time.monotonic() - submitted_at)
        stats["faults"] += job_size(plan[entry])
        stats["jobs"].append({
            "id": job_id, "entry": entry,
            "queue_wait_s": record["started_at"] - record["submitted_at"],
            "run_s": record["finished_at"] - record["started_at"],
            "detect_wait_s": seen_at - record["finished_at"],
            "digest": digest(json.loads(body)["report"]),
        })
    stats["seconds"] += time.monotonic() - started
    stats["submitted"] += submitted


class ServiceFleet:
    """Coordinator + one pull worker, driven through ``ServiceClient``."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.plan = service_plan(seed)
        self.fleet = Fleet(workdir / "fleet", trace=False)
        self.fleet.start()       # the fleet boots while this process imports
        from repro.service import ServiceClient

        self.client = ServiceClient(self.fleet.url)
        try:
            self.fleet.wait_ready(self.client)
        except Exception:
            self.fleet.stop()
            raise
        self._direct: Optional[List] = None

    def direct_reports(self) -> List:
        """Each mix entry's report from a direct in-process run."""
        if self._direct is None:
            self._direct = [direct_report(job) for job in self.plan]
        return self._direct

    def run(self, fleet: Fleet, client, seconds: float, min_jobs: int,
            checker: Checker, stats: Dict) -> Dict[str, Dict[str, float]]:
        """The closed loop on *fleet*; returns its processes' status."""
        try:
            service_loop(client, self.plan, seconds, min_jobs, checker,
                         stats)
            status = {role: fleet.proc_status(role)
                      for role in ("coordinator", "worker")}
        finally:
            fleet.stop()
        stats["journal_bytes"] += journal_bytes(fleet.service_dir)
        for job in stats["jobs"]:
            job.setdefault("service_dir", fleet.service_dir)
        return status

    def check(self, jobs: List[Dict], checker: Checker) -> Dict[str, str]:
        """Fleet reports against direct in-process runs; journal replay.

        Returns the expected digests (committed, or computed here)."""
        from repro.campaign.engine import merge_ordered

        expected = checker.expected
        if expected is None:
            expected = {f"job/{entry}": digest(report.to_dict())
                        for entry, report in enumerate(self.direct_reports())}
        replayed = set()
        for job in jobs:
            entry = job["entry"]
            checker.attempted += 1
            if job["digest"] != expected.get(f"job/{entry}"):
                checker.fail(f"job {job['id']} (mix entry {entry}) differs "
                             f"from the direct in-process report")
            if (job["service_dir"], entry) in replayed:
                continue
            replayed.add((job["service_dir"], entry))
            kind = self.plan[entry]["kind"]
            units = _replay_journal(
                job["service_dir"] / "jobs" / str(job["id"])
                / f"{kind}.jsonl", f"{kind}-report")
            checker.invariant(
                digest(merge_ordered(units).to_dict()) == job["digest"],
                f"job {job['id']}: journal replay differs from the report")
        return expected

    def outcomes(self, checker: Checker) -> Dict[str, int]:
        """Tallies of one mix cycle, from direct in-process runs."""
        reports = self.direct_reports()
        for entry, (job, report) in enumerate(zip(self.plan, reports)):
            checker.invariant(
                report.n_masked + report.n_sdc + report.n_due
                == job_size(job),
                f"mix entry {entry}: outcomes do not sum to its size")
        return count_outcomes(reports)

    def profile_items(self) -> List[Callable[[], object]]:
        """The worker's shard execution for an FU, a control and a PVF job."""
        from repro.campaign.engine import plan_batches
        from repro.service import normalize_params, run_job_units

        items = []
        for entry in (0, 2, 3):
            job = self.plan[entry]
            params = normalize_params(job["kind"], job["params"])
            units = len(plan_batches(job_size(job), params["batch_size"]))
            items.append(lambda job=job, params=params, units=units:
                         run_job_units(job["kind"], params, 0, units))
        return items

    def provenance(self) -> Dict:
        return {"outstanding": OUTSTANDING,
                "units_per_claim": UNITS_PER_CLAIM,
                "poll_s": {"client": CLIENT_POLL_S, "worker": WORKER_POLL_S,
                           "daemon": DAEMON_POLL_S},
                "lease_s": LEASE_S, "min_jobs": MIN_SAMPLES}


# -- measurement ------------------------------------------------------------
def run_rounds(workload, workdir: Path, seconds: float, checker: Checker,
               stats: Dict) -> None:
    """A fixed number of rounds for *seconds*: the same work on any host.

    The count is *seconds* over the round's reference duration, so a
    faster or slower host changes the measured time, never the inputs."""
    rounds = max(workload.MIN_ROUNDS, int(seconds // workload.ROUND_S))
    for index in range(rounds):
        workload.round(index, workdir / f"round{index}", checker, stats)


def end_to_end(stats: Dict, rss_mb: float) -> Dict[str, float]:
    latencies = stats["latency_s"] or stats["unit_s"]
    return {
        "faults_per_s": stats["faults"] / stats["seconds"],
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": rss_mb,
    }


def traced_in_process(workload, workdir: Path,
                      checker: Checker) -> Tuple[Dict, Dict]:
    """Untraced round, profile pass, the same round traced."""
    untraced = new_stats()
    workload.round(0, workdir / "untraced", checker, untraced)
    metrics = tracing.profile_pass(workload.profile_items())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = new_stats()
    workload.round(0, workdir / "traced", checker, traced)
    spans = tracing.Spans([(tracer.spans, tracer.counts)])
    metrics.update(tracing.span_metrics(spans, 1))
    unit_s = traced["unit_s"]
    metrics.update(workload.layer_extras(untraced))
    metrics.update({
        "trace.overhead_share": traced["seconds"] / untraced["seconds"] - 1,
        "campaign.engine.unit_p50_s": percentile(unit_s, 0.5),
        "campaign.engine.unit_p90_s": percentile(unit_s, 0.9),
        "campaign.engine.self_s": (spans.total("campaign.engine.run_units")
                                   - sum(unit_s)),
        "campaign.checkpoint.bytes": traced["journal_bytes"],
    })
    return metrics, traced


def traced_service(workload: ServiceFleet, workdir: Path, seconds: float,
                   checker: Checker) -> Tuple[Dict, List[Dict]]:
    """Untraced cycles, profile pass, traced fleet: per-layer metrics."""
    begun = time.monotonic()
    cycle = len(workload.plan)
    untraced = new_stats()
    status = workload.run(workload.fleet, workload.client, 0.0,
                          TRACE_CYCLES * cycle, checker, untraced)
    metrics = tracing.profile_pass(workload.profile_items())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    fleet = Fleet(workdir / "traced", trace=True)
    fleet.start()
    from repro.service import ServiceClient

    client = ServiceClient(fleet.url)
    try:
        fleet.wait_ready(client)
    except Exception:
        fleet.stop()
        raise
    traced = new_stats()
    workload.run(fleet, client, seconds - (time.monotonic() - begun),
                 TRACE_CYCLES * cycle, checker, traced)
    cycles = traced["submitted"] / cycle
    spans = tracing.Spans(
        [(list(tracer.spans), tracer.counts)]
        + [tracing.read_spans(fleet.span_file(role))
           for role in ("coordinator", "worker")])
    metrics.update(tracing.span_metrics(spans, cycles))
    jobs = untraced["jobs"]
    untraced_jobs = max(1, len(jobs))
    metrics.update({
        "trace.overhead_share": (traced["seconds"] / traced["submitted"])
        / (untraced["seconds"] / untraced["submitted"]) - 1.0,
        "campaign.checkpoint.bytes": traced["journal_bytes"] / cycles,
        "service.coordinator.cpu_s": status["coordinator"]["cpu_s"]
        / untraced_jobs,
        "service.worker.cpu_s": status["worker"]["cpu_s"] / untraced_jobs,
    })
    for key in ("queue_wait_s", "run_s", "detect_wait_s"):
        metrics[f"service.job.{key}"] = tracing.median(
            [job[key] for job in jobs])
    return metrics, jobs + traced["jobs"]


def measure(args) -> Dict:
    """Set up, then (unless --setup-only) run and check the workload."""
    workdir = Path(args.workdir)
    if args.workload == "rtl-grid":
        workload = RtlGrid(args.seed)
    elif args.workload == "swfi-pvf":
        workload = SwfiPvf(args.seed)
    else:
        workload = ServiceFleet(args.seed, workdir)
    result: Dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        if isinstance(workload, ServiceFleet):
            workload.fleet.stop()
        return result

    import numpy
    import scipy

    result["provenance"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": args.seed,
        "plan": workload.plan}
    checker = Checker(committed_digests(args.workload, args.seed))
    stats = new_stats()
    metrics: Dict[str, float] = {}
    try:
        if isinstance(workload, ServiceFleet):
            result["provenance"].update(workload.provenance())
            if args.trace:
                metrics, jobs = traced_service(workload, workdir,
                                               args.seconds, checker)
            else:
                status = workload.run(workload.fleet, workload.client,
                                      args.seconds, MIN_SAMPLES, checker,
                                      stats)
                metrics = end_to_end(stats, sum(s["rss_mb"]
                                                for s in status.values()))
                jobs = stats["jobs"]
            result["digests"] = workload.check(jobs, checker)
            result["outcomes"] = workload.outcomes(checker)
            result["provenance"]["jobs"] = len(jobs)
        else:
            if args.trace:
                metrics, stats = traced_in_process(workload, workdir,
                                                   checker)
            else:
                run_rounds(workload, workdir, args.seconds, checker, stats)
                metrics = end_to_end(stats, peak_rss_mb())
            result["digests"] = checker.seen
            result["outcomes"] = stats["outcomes"]
            result["provenance"]["rounds"] = len(stats["round_s"])
        if args.trace:
            metrics.update({f"outcomes.{k}": v
                            for k, v in result["outcomes"].items()})
    except Exception:
        checker.attempted += 1
        checker.fail(traceback.format_exc(limit=8))
    result.update(metrics=metrics, attempted=max(1, checker.attempted),
                  failed=checker.failed, problems=checker.problems)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rtl-grid", "swfi-pvf", "service-fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
