"""Command-line interface to the two-level fault-injection framework.

::

    python -m repro campaign --opcode FADD --module fp32 --faults 500
    python -m repro tmxm --tile Random --module scheduler --faults 500
    python -m repro profile --app MxM
    python -m repro pvf --app Hotspot --model both --injections 300
    python -m repro build-db --grid-faults 1500
    python -m repro pipeline --workdir runs/full --seed 7
    python -m repro stats runs/full
    python -m repro inventory

Service mode (campaign-as-a-service)::

    python -m repro serve --workdir runs/service --port 8765
    python -m repro submit --kind pvf --app MxM --injections 600 --wait
    python -m repro jobs
    python -m repro fetch 1 report --output report.json
    python -m repro cancel 1

Fleet mode (coordinator + lease-based pull workers)::

    python -m repro serve --workdir runs/fleet --no-scheduler
    python -m repro worker --url http://127.0.0.1:8765
    python -m repro workers --url http://127.0.0.1:8765

Commands print their results on *stdout*.  Diagnostics — a line per
finished work unit, pipeline stages, service and worker events — are
stdlib :mod:`logging` events of the ``repro`` logger, and this module
is the one place that configures it: they go to *stderr* at INFO,
silenced by ``--quiet``; ``worker`` logs them only with ``--verbose``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.attribution import attribute_outcomes, render_attribution
from .analysis.figures import render_fig3
from .analysis.stats import margin_of_error
from .analysis.tables import render_table1
from .datafiles import DEFAULT_GRID_FAULTS, DEFAULT_SEED, DEFAULT_TMXM_FAULTS
from .errors import ServiceError
from .gpu import Opcode
from .rtl import (
    RTLInjector,
    make_microbenchmark,
    make_tmxm_bench,
    run_campaign,
    run_signature_campaign,
)
from .syndrome.builder import tmxm_entry_from_report

__all__ = ["main"]


class _StderrHandler(logging.StreamHandler):
    """``%(message)s`` lines to whatever ``sys.stderr`` is at emit time,
    so a handler outlives a swapped stream (pytest swaps it per test)."""

    def __init__(self) -> None:
        super().__init__()
        self.setFormatter(logging.Formatter("%(message)s"))

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        pass  # always the current sys.stderr


def _configure_logging(args: argparse.Namespace) -> None:
    """Route the ``repro`` logger to stderr at the asked verbosity:
    INFO unless ``--quiet``; ``worker`` only with ``--verbose``."""
    verbose = getattr(args, "verbose", not getattr(args, "quiet", False))
    logger = logging.getLogger("repro")
    logger.setLevel(logging.INFO if verbose else logging.WARNING)
    if not any(isinstance(h, _StderrHandler) for h in logger.handlers):
        logger.addHandler(_StderrHandler())


def _apps():
    from .apps import APP_FACTORIES

    return APP_FACTORIES


def _version() -> str:
    """Installed distribution version, else the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def _cmd_inventory(args: argparse.Namespace) -> int:
    injector = RTLInjector()
    print(render_table1(injector.plane))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    module = args.module
    if module == "fp32" and args.precision != "fp32":
        # follow the float datapath the precision selects
        module = args.precision
    if args.fault_model == "stuck-at":
        return _run_signature_cli(args, module)
    bench = make_microbenchmark(Opcode(args.opcode), args.range,
                                seed=args.seed, precision=args.precision)
    report = run_campaign(bench, module, args.faults, seed=args.seed,
                          n_jobs=args.jobs, batch_size=args.batch_size,
                          fault_model=args.fault_model,
                          burst_width=args.burst_width,
                          burst_window=args.burst_window)
    label = ("" if args.fault_model == "transient"
             else f" [{args.fault_model}]")
    print(f"{args.opcode} x {module}{label} ({args.range} inputs, "
          f"{args.faults} faults, seed {args.seed})")
    print(f"  masked {report.n_masked}  SDC {report.n_sdc} "
          f"(single {report.n_sdc_single} / multi {report.n_sdc_multiple})"
          f"  DUE {report.n_due}")
    margin = (f"+/-{margin_of_error(args.faults):.1%}"
              if args.faults > 0 else "n/a")
    print(f"  AVF {report.avf():.4f}  margin {margin}")
    if args.attribution:
        print()
        print(render_attribution(attribute_outcomes([report])))
    return 0


def _run_signature_cli(args: argparse.Namespace, module: str) -> int:
    report = run_signature_campaign(
        module, args.faults, seed=args.seed, apps=args.apps,
        n_jobs=args.jobs)
    print(f"stuck-at x {module} ({report.n_faults} faults x "
          f"{len(report.apps)} apps, seed {args.seed})")
    for app, row in report.per_app_summary().items():
        print(f"  {app:<14} masked {row['masked']:>4}  "
              f"SDC {row['sdc']:>4}  DUE {row['due']:>4}  "
              f"corrupted values {row['n_corrupted_values']}")
    print("  distinct signatures "
          f"({' | '.join(report.apps)}):")
    signatures = sorted(report.distinct_signatures().items(),
                        key=lambda kv: (-kv[1], kv[0]))
    for outcomes, count in signatures:
        print(f"    {count:>4} x {' | '.join(outcomes)}")
    if args.output:
        import json as _json

        from .artifacts import dump_artifact

        payload = dump_artifact("signature-report", report)
        Path(args.output).write_text(
            _json.dumps(payload, indent=2) + "\n")
        print(f"  signature report -> {args.output}")
    return 0


def _cmd_tmxm(args: argparse.Namespace) -> int:
    bench = make_tmxm_bench(args.tile, seed=args.seed)
    report = run_campaign(bench, args.module, args.faults, seed=args.seed,
                          n_jobs=args.jobs, batch_size=args.batch_size)
    entry = tmxm_entry_from_report(report)
    print(f"t-MxM ({args.tile} tile) x {args.module}: "
          f"masked {report.n_masked}  SDC {report.n_sdc}  "
          f"DUE {report.n_due}")
    print("  spatial patterns:", {
        pattern.value: stats.occurrences
        for pattern, stats in sorted(entry.patterns.items(),
                                     key=lambda kv: kv[0].value)})
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .apps import make_application
    from .swfi import profile_application

    app = make_application(args.app, seed=args.seed,
                           precision=args.precision)
    profile = profile_application(app)
    print(render_fig3([profile]))
    return 0


def _cmd_pvf(args: argparse.Namespace) -> int:
    from .datafiles import load_database
    from .swfi import (
        RelativeErrorSyndrome,
        SingleBitFlip,
        SoftwareInjector,
        run_pvf_campaign,
    )

    from .apps import make_application

    app = make_application(args.app, seed=args.seed,
                           precision=args.precision)
    injector = SoftwareInjector(app) if args.jobs == 1 else None
    models = []
    if args.model in ("bitflip", "both"):
        models.append(SingleBitFlip())
    if args.model in ("syndrome", "both"):
        models.append(RelativeErrorSyndrome(load_database()))
    for model in models:
        checkpoint = args.checkpoint
        if checkpoint is not None and len(models) > 1:
            # one journal per model so "--model both" runs stay resumable
            checkpoint = f"{checkpoint}.{model.name}.jsonl"
        suffix = ""
        if args.target_ci is not None:
            from .adaptive import AdaptiveConfig, run_adaptive_pvf_campaign

            config = AdaptiveConfig(target_ci=args.target_ci,
                                    min_per_cell=args.min_per_cell)
            outcome = run_adaptive_pvf_campaign(
                app, model, args.injections, config, seed=args.seed,
                n_jobs=args.jobs, batch_size=args.batch_size,
                checkpoint=checkpoint, resume=args.resume)
            report = outcome.report
            stop = ("converged" if outcome.converged
                    else "plan exhausted")
            suffix = (f"; adaptive: {report.n_injections}/"
                      f"{args.injections} injections in "
                      f"{outcome.rounds} round(s), {stop}")
        else:
            report = run_pvf_campaign(
                app, model, args.injections, seed=args.seed,
                injector=injector, n_jobs=args.jobs,
                batch_size=args.batch_size, checkpoint=checkpoint,
                resume=args.resume)
        low, high = report.confidence_interval()
        print(f"{app.name} under {model.name}: PVF {report.pvf:.3f} "
              f"(95% CI [{low:.3f}, {high:.3f}], "
              f"DUE rate {report.due_rate:.3f}, "
              f"{args.jobs} job{'s' if args.jobs != 1 else ''})"
              f"{suffix}")
    return 0


def _cmd_build_db(args: argparse.Namespace) -> int:
    from . import datafiles

    database = datafiles.build_full_database(
        args.grid_faults, args.tmxm_faults, args.seed,
        n_jobs=args.jobs, batch_size=args.batch_size)
    path = Path(args.output) if args.output else \
        datafiles.default_database_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    database.save(path)
    print(f"saved {path} ({len(database.entries())} entries, "
          f"{len(database.tmxm_entries())} t-MxM entries)")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .campaign.pipeline import run_pipeline

    models = ([args.model] if args.model != "both"
              else ["bitflip", "syndrome"])
    opcodes = None
    if args.opcodes:
        opcodes = [Opcode(name) for name in args.opcodes]
    summary = run_pipeline(
        args.workdir, seed=args.seed, opcodes=opcodes,
        grid_faults=args.grid_faults, tmxm_faults=args.tmxm_faults,
        apps=args.apps, models=models, injections=args.injections,
        n_jobs=args.jobs, batch_size=args.batch_size, fresh=args.fresh,
        precision=args.precision)
    db = summary["database"]
    print(f"syndrome database: {db['entries']} entries, "
          f"{db['tmxm_entries']} t-MxM entries")
    for row in summary["pvf"]:
        low, high = row["ci95"]
        print(f"{row['app']} under {row['model']}: PVF {row['pvf']:.3f} "
              f"(95% CI [{low:.3f}, {high:.3f}], "
              f"DUE rate {row['due_rate']:.3f}, "
              f"{row['n_injections']} injections)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .campaign.telemetry import discover_metrics, render_stats
    from .errors import CampaignError

    try:
        payloads = discover_metrics(args.target)
    except CampaignError as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        print("hint: point it at a campaign workdir (after at least one "
              "checkpointed run), a metrics.json file, or a .jsonl "
              "journal with a sibling metrics file", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payloads, indent=2))
        return 0
    print(render_stats(payloads, per_cell=not args.no_cells))
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    import json as _json

    from .analytics import mine_patterns
    from .artifacts import dump_artifact, load_artifact
    from .errors import ReproError

    try:
        payload = _json.loads(Path(args.report).read_text())
    except (OSError, ValueError) as exc:
        print(f"repro patterns: cannot read {args.report}: {exc}",
              file=sys.stderr)
        return 2
    # accept a bare report, an enveloped artifact, or a service
    # report.json wrapper (whose "report" key embeds the report body)
    body = payload
    if isinstance(payload.get("report"), dict):
        body = payload["report"]
    if body.get("kind") in ("pvf-report", "rtl-report"):
        kind = body["kind"]
    elif "instruction" in body:
        kind = "rtl-report"
    elif "app_name" in body:
        kind = "pvf-report"
    else:
        print(f"repro patterns: {args.report} is not a pvf/rtl "
              f"campaign report", file=sys.stderr)
        return 2
    try:
        mined = mine_patterns(load_artifact(kind, body))
    except ReproError as exc:
        print(f"repro patterns: {exc}", file=sys.stderr)
        return 2
    text = _json.dumps(dump_artifact("pattern-report", mined),
                       indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"saved {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# -- service verbs ------------------------------------------------------------
DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceDaemon

    daemon = ServiceDaemon(args.workdir, host=args.host, port=args.port,
                           poll_interval=args.poll_interval,
                           execute_jobs=not args.no_scheduler,
                           max_queue_depth=args.max_queue).start()
    print(f"repro service listening on {daemon.url} "
          f"(workdir {daemon.workdir})", flush=True)
    daemon.wait()  # until interrupted
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .service import CampaignWorker

    worker = CampaignWorker(args.url, name=args.name,
                            lease_seconds=args.lease,
                            poll_interval=args.poll)
    try:
        claims = worker.run_forever(drain=args.drain,
                                    max_claims=args.max_claims)
    except KeyboardInterrupt:
        print(f"worker {worker.name}: interrupted", file=sys.stderr)
        return 130
    print(f"worker {worker.name}: {claims} shard"
          f"{'s' if claims != 1 else ''} claimed")
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    import time as _time

    client = _client(args)
    workers = client.workers()
    if not workers:
        print("no workers have claimed from this service")
        return 0
    now = _time.time()
    print(f"{'worker':<28}{'alive':<7}{'last seen':>10}"
          f"{'claims':>8}{'units':>7}")
    for row in workers:
        age = _format_age(max(0.0, now - row["last_seen"]))
        alive = "yes" if row.get("alive") else "no"
        print(f"{row['id']:<28}{alive:<7}{age:>10}"
              f"{row['jobs_claimed']:>8}{row['units_done']:>7}")
    return 0


def _client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.url)


#: submit flags forwarded verbatim as job parameters when provided
_SUBMIT_PARAMS = ("seed", "jobs", "batch_size", "budget",
                  "app", "model", "injections", "opcode", "module",
                  "range", "faults", "apps", "models", "opcodes",
                  "grid_faults", "tmxm_faults", "precision",
                  "fault_model", "burst_width", "burst_window",
                  "units_per_claim", "target_ci", "strategy",
                  "min_per_cell")


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    params = {name: getattr(args, name) for name in _SUBMIT_PARAMS
              if getattr(args, name) is not None}
    job = client.submit(args.kind, priority=args.priority, **params)
    if args.id_only:
        print(job["id"])
    else:
        print(f"job {job['id']} ({job['kind']}) {job['state']}")
    if args.wait is not None:
        job = client.wait(job["id"], timeout=args.wait)
        if not args.id_only:
            print(f"job {job['id']} finished: {job['state']}")
        if job["state"] != "done":
            if job.get("error"):
                print(job["error"], file=sys.stderr)
            return 1
    return 0


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    client = _client(args)
    if args.id is not None:
        print(_json.dumps(client.job(args.id), indent=2))
        return 0
    jobs = client.jobs(state=args.state)
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':>5}  {'kind':<9}{'state':<11}{'age':>6}  summary")
    now = _time.time()
    for job in jobs:
        result = job.get("result") or {}
        if job["kind"] == "pvf":
            summary = (f"{job['params'].get('app')}/"
                       f"{job['params'].get('model')}")
            if "pvf" in result:
                summary += f" PVF {result['pvf']:.3f}"
        elif job["kind"] == "rtl":
            summary = (f"{job['params'].get('opcode')} x "
                       f"{job['params'].get('module')}")
            if "avf" in result:
                summary += f" AVF {result['avf']:.3f}"
        else:
            summary = ",".join(job["params"].get("apps", []))
        if job.get("error"):
            summary += f"  [{job['error'].splitlines()[0][:40]}]"
        age = _format_age(now - job["submitted_at"])
        print(f"{job['id']:>5}  {job['kind']:<9}{job['state']:<11}"
              f"{age:>6}  {summary}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _client(args)
    body, _ = client.artifact(args.id, args.artifact)
    if args.output:
        Path(args.output).write_bytes(body or b"")
        print(f"saved {args.output}")
    else:
        sys.stdout.write((body or b"").decode())
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    job = client.cancel(args.id)
    if job["state"] == "cancelled":
        print(f"job {job['id']} cancelled")
    else:
        print(f"job {job['id']} cancellation requested "
              f"(currently {job['state']}; stops at the next work unit)")
    return 0


def _cmd_db_info(args: argparse.Namespace) -> int:
    from .datafiles import load_database

    database = load_database()
    entries = database.entries()
    print(f"syndrome database: {len(entries)} instruction cells, "
          f"{len(database.tmxm_entries())} t-MxM cells")
    print(f"{'opcode':<8}{'range':<7}{'module':<16}{'n':>6}"
          f"{'median':>12} {'alpha':>7}")
    for entry in entries:
        alpha = f"{entry.fit.alpha:.2f}" if entry.fit else "-"
        print(f"{entry.key.opcode:<8}{entry.key.input_range:<7}"
              f"{entry.key.module:<16}{entry.n_samples:>6}"
              f"{entry.median_relative_error():>12.3g} {alpha:>7}")
    for tm in database.tmxm_entries():
        dist = {p.value: round(f, 3)
                for p, f in tm.pattern_distribution().items()}
        print(f"t-MxM {tm.tile_kind:<7}{tm.module:<11} "
              f"occ={tm.total_occurrences:<5} {dist}")
    return 0


def _cmd_schemas(args: argparse.Namespace) -> int:
    import json as _json

    from .artifacts import get_schema, registered_kinds, schema_fingerprint

    rows = []
    for kind in registered_kinds():
        schema = get_schema(kind)
        try:
            fingerprint = schema_fingerprint(kind)
        except Exception:
            fingerprint = None
        rows.append({"kind": kind, "version": schema.version,
                     "migrations": sorted(schema.migrations),
                     "fingerprint": fingerprint})
    if args.json:
        print(_json.dumps(rows, indent=2))
        return 0
    print(f"{'kind':<20}{'version':>8}  {'migrations':<12}fingerprint")
    for row in rows:
        steps = (",".join(f"{v}->{v + 1}" for v in row["migrations"])
                 or "-")
        fingerprint = (row["fingerprint"][:16]
                       if row["fingerprint"] else "-")
        print(f"{row['kind']:<20}{row['version']:>8}  {steps:<12}"
              f"{fingerprint}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-level (RTL + software) GPU fault injection")
    parser.add_argument("--version", action="version",
                        version=f"repro {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by every campaign-running subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output (stderr)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes (work is seed-sharded; "
                             "results are identical for any job count)")
    common.add_argument("--batch-size", type=int, default=None,
                        help="work units per batch (default: one unit "
                             "per campaign cell; PVF campaigns: 50)")

    # float datapath selector shared by precision-aware subcommands
    precision_opt = argparse.ArgumentParser(add_help=False)
    precision_opt.add_argument(
        "--precision", default="fp32",
        choices=["fp32", "fp16", "bf16"],
        help="float datapath / operand storage format (default fp32)")

    inventory = sub.add_parser(
        "inventory", help="print the Table I module inventory")
    inventory.set_defaults(func=_cmd_inventory)

    schemas = sub.add_parser(
        "schemas",
        help="list the registered artifact schemas (kind, version, "
             "migrations, fingerprint)")
    schemas.add_argument("--json", action="store_true",
                         help="machine-readable output")
    schemas.set_defaults(func=_cmd_schemas)

    campaign = sub.add_parser(
        "campaign", parents=[common, precision_opt],
        help="run one RTL micro-benchmark campaign")
    campaign.add_argument("--opcode", default="FADD",
                          choices=[o.value for o in Opcode
                                   if o.value not in ("MOV", "NOP",
                                                      "EXIT")])
    campaign.add_argument("--module", default="fp32")
    campaign.add_argument("--range", default="M", choices=["S", "M", "L"])
    campaign.add_argument("--faults", type=int, default=500)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--fault-model", default="transient",
                          choices=["transient", "stuck-at", "burst"],
                          help="what each injected fault does: one-shot "
                               "bit flips (default), permanent stuck-at "
                               "defects (per-app error signatures), or "
                               "multi-bit burst strikes")
    campaign.add_argument("--apps", nargs="+", default=None,
                          metavar="APP",
                          help="stuck-at campaigns: the application "
                               "suite characterising each defect "
                               "('tmxm/<Tile>' or '<OPCODE>/<RANGE>'; "
                               "default: the module's suite)")
    campaign.add_argument("--burst-width", type=int, default=4,
                          help="burst campaigns: bits flipped per "
                               "strike (default 4)")
    campaign.add_argument("--burst-window", type=int, default=4,
                          help="burst campaigns: cycles the strike "
                               "window stays open (default 4)")
    campaign.add_argument("--output", "-o", default=None,
                          help="stuck-at campaigns: also write the "
                               "signature-report artifact here")
    campaign.add_argument("--attribution", action="store_true",
                          help="print the per-register attribution")
    campaign.set_defaults(func=_cmd_campaign)

    tmxm = sub.add_parser("tmxm", parents=[common],
                          help="run one t-MxM RTL campaign")
    tmxm.add_argument("--tile", default="Random",
                      choices=["Max", "Zero", "Random"])
    tmxm.add_argument("--module", default="scheduler",
                      choices=["scheduler", "pipeline"])
    tmxm.add_argument("--faults", type=int, default=500)
    tmxm.add_argument("--seed", type=int, default=0)
    tmxm.set_defaults(func=_cmd_tmxm)

    profile = sub.add_parser(
        "profile", parents=[precision_opt],
        help="print an application's dynamic SASS profile")
    profile.add_argument("--app", default="MxM",
                         choices=sorted(_apps()))
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(func=_cmd_profile)

    pvf = sub.add_parser(
        "pvf", parents=[common, precision_opt],
        help="measure an application's PVF under a fault model")
    pvf.add_argument("--app", default="MxM", choices=sorted(_apps()))
    pvf.add_argument("--model", default="both",
                     choices=["bitflip", "syndrome", "both"])
    pvf.add_argument("--injections", type=int, default=300)
    pvf.add_argument("--seed", type=int, default=0)
    pvf.add_argument("--checkpoint", default=None,
                     help="JSONL journal of completed batches (with "
                          "--model both, one file per model is derived "
                          "from this path)")
    pvf.add_argument("--resume", action="store_true",
                     help="skip batches already recorded in --checkpoint")
    pvf.add_argument("--target-ci", type=float, default=None,
                     help="adaptive mode: stop once the 95%% Wilson "
                          "interval on the PVF is at most this wide "
                          "(--injections becomes the maximum)")
    pvf.add_argument("--min-per-cell", type=int, default=100,
                     help="adaptive warm-up injections before the stop "
                          "rule may fire (default 100)")
    pvf.set_defaults(func=_cmd_pvf)

    stats = sub.add_parser(
        "stats",
        help="render campaign telemetry (metrics.json) as throughput "
             "tables")
    stats.add_argument("target",
                       help="pipeline workdir, metrics.json file, or a "
                            "campaign journal (.jsonl) with a sibling "
                            "metrics file")
    stats.add_argument("--no-cells", action="store_true",
                       help="skip the per-cell throughput breakdown")
    stats.add_argument("--json", action="store_true",
                       help="emit the raw metrics payloads as JSON "
                            "(for scripting)")
    stats.set_defaults(func=_cmd_stats)

    patterns = sub.add_parser(
        "patterns",
        help="mine SDC patterns (spatial/temporal/signatures) from a "
             "campaign report")
    patterns.add_argument("report",
                          help="a pvf/rtl report JSON file — bare, "
                               "enveloped, or a service report.json")
    patterns.add_argument("--output", "-o", default=None,
                          help="write the pattern report to this file "
                               "instead of stdout")
    patterns.set_defaults(func=_cmd_patterns)

    db_info = sub.add_parser(
        "db-info", help="summarise the shipped syndrome database")
    db_info.set_defaults(func=_cmd_db_info)

    build_db = sub.add_parser(
        "build-db", parents=[common],
        help="rebuild the shipped syndrome database")
    build_db.add_argument("--grid-faults", type=int,
                          default=DEFAULT_GRID_FAULTS)
    build_db.add_argument("--tmxm-faults", type=int,
                          default=DEFAULT_TMXM_FAULTS)
    build_db.add_argument("--seed", type=int, default=DEFAULT_SEED)
    build_db.add_argument("--output", default=None,
                          help="database path (default: the shipped one)")
    build_db.set_defaults(func=_cmd_build_db)

    pipeline = sub.add_parser(
        "pipeline", parents=[common, precision_opt],
        help="end-to-end run: RTL grid -> syndrome DB -> application PVF "
             "(resumable per stage; re-run with the same --workdir to "
             "continue)")
    pipeline.add_argument("--workdir", required=True,
                          help="directory for checkpoints, the database "
                               "and the final summary")
    pipeline.add_argument("--seed", type=int, default=2021)
    pipeline.add_argument("--opcodes", nargs="+", default=None,
                          metavar="OPCODE",
                          help="restrict the RTL grid to these opcodes "
                               "(default: all characterised)")
    pipeline.add_argument("--grid-faults", type=int, default=200)
    pipeline.add_argument("--tmxm-faults", type=int, default=200)
    pipeline.add_argument("--apps", nargs="+", default=["MxM"],
                          choices=sorted(_apps()))
    pipeline.add_argument("--model", default="both",
                          choices=["bitflip", "syndrome", "both"])
    pipeline.add_argument("--injections", type=int, default=300)
    pipeline.add_argument("--fresh", action="store_true",
                          help="ignore existing checkpoints and database "
                               "in --workdir and start over")
    pipeline.set_defaults(func=_cmd_pipeline)

    # -- service verbs --------------------------------------------------------
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--url", default=DEFAULT_SERVICE_URL,
                        help=f"service base URL "
                             f"(default {DEFAULT_SERVICE_URL})")

    serve = sub.add_parser(
        "serve",
        help="run the campaign service daemon (durable job queue + "
             "HTTP API + artifact registry)")
    serve.add_argument("--workdir", required=True,
                       help="directory for the job store, per-job "
                            "journals and artifacts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free one; see "
                            "<workdir>/service.json)")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       help="seconds the scheduler and local worker "
                            "sleep when the queue is empty")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress request logging and job progress")
    serve.add_argument("--no-scheduler", action="store_true",
                       help="coordinator mode: no local worker and no "
                            "pipelines — queue, lease and merge only; "
                            "pvf/rtl jobs execute on pull workers "
                            "('repro worker')")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="reject submissions (HTTP 429) once this "
                            "many jobs are queued")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker", parents=[client],
        help="join a service's injection fleet: claim, execute and "
             "deliver unit shards over plain HTTP")
    worker.add_argument("--name", default=None,
                        help="worker identity (default <hostname>-<pid>)")
    worker.add_argument("--lease", type=float, default=30.0,
                        help="lease seconds per claim; renewed between "
                             "work units (default 30)")
    worker.add_argument("--poll", type=float, default=1.0,
                        help="seconds between claims when the queue is "
                             "empty (default 1)")
    worker.add_argument("--drain", action="store_true",
                        help="exit once a claim comes back empty")
    worker.add_argument("--max-claims", type=int, default=None,
                        help="exit after this many shards")
    worker.add_argument("--verbose", action="store_true",
                        help="log claims, deliveries and lease events")
    worker.set_defaults(func=_cmd_worker)

    workers = sub.add_parser(
        "workers", parents=[client],
        help="list the workers known to a service (liveness, claim and "
             "unit counts)")
    workers.set_defaults(func=_cmd_workers)

    submit = sub.add_parser(
        "submit", parents=[client],
        help="submit a campaign job to a running service")
    submit.add_argument("--kind", required=True,
                        choices=["pvf", "rtl", "pipeline"])
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the job's campaign")
    submit.add_argument("--batch-size", type=int, default=None)
    submit.add_argument("--budget", type=float, default=None,
                        help="wall-clock seconds for the whole job; an "
                             "over-budget job fails (requeue to resume)")
    submit.add_argument("--app", default=None, help="pvf jobs")
    submit.add_argument("--model", default=None,
                        choices=["bitflip", "syndrome"],
                        help="pvf jobs (default bitflip)")
    submit.add_argument("--injections", type=int, default=None,
                        help="pvf / pipeline jobs")
    submit.add_argument("--opcode", default=None, help="rtl jobs")
    submit.add_argument("--module", default=None, help="rtl jobs")
    submit.add_argument("--range", default=None, choices=["S", "M", "L"],
                        help="rtl jobs")
    submit.add_argument("--faults", type=int, default=None,
                        help="rtl jobs")
    submit.add_argument("--fault-model", default=None,
                        choices=["transient", "stuck-at", "burst"],
                        help="rtl jobs (default transient; stuck-at "
                             "runs a per-app signature campaign)")
    submit.add_argument("--burst-width", type=int, default=None,
                        help="rtl burst jobs: bits per strike")
    submit.add_argument("--burst-window", type=int, default=None,
                        help="rtl burst jobs: strike window cycles")
    submit.add_argument("--apps", nargs="+", default=None,
                        help="pipeline jobs; rtl stuck-at jobs "
                             "('tmxm/<Tile>' or '<OPCODE>/<RANGE>')")
    submit.add_argument("--models", nargs="+", default=None,
                        choices=["bitflip", "syndrome"],
                        help="pipeline jobs")
    submit.add_argument("--opcodes", nargs="+", default=None,
                        help="pipeline jobs")
    submit.add_argument("--grid-faults", type=int, default=None,
                        help="pipeline jobs")
    submit.add_argument("--tmxm-faults", type=int, default=None,
                        help="pipeline jobs")
    submit.add_argument("--precision", default=None,
                        choices=["fp32", "fp16", "bf16"],
                        help="float datapath (pvf / rtl / pipeline jobs)")
    submit.add_argument("--priority", type=int, default=0,
                        help="claim order: higher first, FIFO within a "
                             "priority (default 0)")
    submit.add_argument("--units-per-claim", type=int, default=None,
                        help="unit-shard size workers claim (pvf / rtl "
                             "jobs; default: quarter of the job's units)")
    submit.add_argument("--target-ci", type=float, default=None,
                        help="adaptive pvf/rtl jobs: stop once the "
                             "Wilson interval is at most this wide "
                             "(--injections/--faults become maxima)")
    submit.add_argument("--strategy", default=None,
                        choices=["neyman", "uniform"],
                        help="adaptive budget-reallocation strategy")
    submit.add_argument("--min-per-cell", type=int, default=None,
                        help="adaptive warm-up injections before the "
                             "stop rule may fire (default 100)")
    submit.add_argument("--wait", type=float, nargs="?", const=3600.0,
                        default=None, metavar="SECONDS",
                        help="poll until the job finishes (non-zero "
                             "exit unless it lands in 'done')")
    submit.add_argument("--id-only", action="store_true",
                        help="print only the job id (for scripting)")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser("jobs", parents=[client],
                          help="list service jobs (or show one)")
    jobs.add_argument("id", nargs="?", default=None,
                      help="job id: print the full record incl. live "
                           "telemetry")
    jobs.add_argument("--state", default=None,
                      choices=["queued", "running", "done", "failed",
                               "cancelled"])
    jobs.set_defaults(func=_cmd_jobs)

    fetch = sub.add_parser(
        "fetch", parents=[client],
        help="download a job artifact from the registry")
    fetch.add_argument("id", help="job id")
    fetch.add_argument("artifact",
                       choices=["report", "metrics", "syndromes",
                                "patterns", "signature"])
    fetch.add_argument("--output", "-o", default=None,
                       help="write to this file instead of stdout")
    fetch.set_defaults(func=_cmd_fetch)

    cancel = sub.add_parser("cancel", parents=[client],
                            help="cancel a queued or running job")
    cancel.add_argument("id", help="job id")
    cancel.set_defaults(func=_cmd_cancel)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        # campaigns re-raise with a journal path + "--resume" hint
        print(f"repro: {exc or 'interrupted'}", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
