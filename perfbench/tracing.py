"""Span tracing and the cProfile pass, installed from outside the program.

The traced run wraps calls into each layer's public functions, at the
name each caller looks up (``classify_run`` is imported by name into
``repro.rtl.injector`` and ``repro.rtl.vectorized``, so both names are
wrapped).  A span records its name, start, end, parent span and an
optional job/unit tag; spans stay in memory and are written out when the
process ends.  A layer's self time is its span time minus the child spans
(or engine units) nested in it.

Per-call hot paths (``FaultPlane.latch``, the ``SassOps`` ops, the
datapath units) are not wrapped: a stdlib cProfile pass over a few
representative campaigns counts them and splits self time by module.
"""

from __future__ import annotations

import collections
import cProfile
import functools
import inspect
import itertools
import json
import pstats
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Modules whose share of self time the profile pass reports.
PROFILED_MODULES = ("gpu.sm", "gpu.fault_plane", "gpu.pipeline",
                    "gpu.scheduler", "gpu.fp32", "gpu.intu", "gpu.sfu",
                    "swfi.ops")

#: Spans that rebuild a worker's workload for one claimed shard.
REBUILD_SPANS = ("apps.make", "rtl.microbench.make", "syndrome.load",
                 "swfi.injector.run_golden", "gpu.trace.prepare")


class Tracer:
    """In-memory span recorder for one process (thread-safe appends)."""

    def __init__(self) -> None:
        # [id, name, start, end, parent id, tag]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             tag: Optional[Callable] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tag(args, kwargs)`` labels the span (job or unit id);
        ``before(args, kwargs)`` returns a context handed to
        ``after(context, args, kwargs, result)`` on normal return.
        """
        raw = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        stack_of = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [next(ids), name, 0.0, 0.0,
                      stack[-1][0] if stack else None,
                      tag(args, kwargs) if tag is not None else None]
            spans.append(record)
            context = before(args, kwargs) if before is not None else None
            stack.append(record)
            record[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(context, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper)
                if isinstance(raw, staticmethod) else wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": dict(self.counts)}))


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else (
        args[index] if len(args) > index else None)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the program (see README)."""
    from repro import apps, datafiles
    from repro.campaign import checkpoint
    from repro.gpu import sm
    from repro.rtl import campaign as rtl_campaign
    from repro.rtl import injector as rtl_injector
    from repro.rtl import microbench, reports, vectorized
    from repro.service import api, client, scheduler, store, worker
    from repro.swfi import campaign as swfi_campaign
    from repro.swfi import injector as swfi_injector
    from repro.swfi import models
    from repro.syndrome import builder, database

    wrap = tracer.wrap
    counts = tracer.counts
    batches = threading.local()

    def kernel_cycles(_, args, kwargs, result) -> None:
        counts["sim_cycles"] += result.cycles

    def open_batch(args, kwargs) -> set:
        scalar: set = set()
        batches.__dict__.setdefault("stack", []).append(scalar)
        return scalar

    def close_batch(scalar, args, kwargs, results) -> None:
        batches.stack.pop()
        faults = _arg(args, kwargs, 2, "faults")
        for fault, classification in zip(faults, results):
            if id(fault) in scalar:
                counts["scalar_fallbacks"] += 1
            elif not classification.fault_fired:
                counts["unfired"] += 1
            else:
                counts["replayed"] += 1

    def note_scalar(_, args, kwargs, result) -> None:
        stack = batches.__dict__.get("stack")
        if stack:
            stack[-1].add(id(_arg(args, kwargs, 3, "fault")))

    def injected(_, args, kwargs, result) -> None:
        counts["dyn_instructions"] += args[0].injectable_total

    def claimed(_, args, kwargs, result) -> None:
        counts["claims" if result is not None else "empty_claims"] += 1

    def job_tag(args, kwargs):
        return _arg(args, kwargs, 1, "job_id")

    def shard_tag(args, kwargs):
        return f"{args[0]}[{args[2]},{args[3]})"

    wrap(sm.StreamingMultiprocessor, "launch", "gpu.sm.launch",
         after=kernel_cycles)
    wrap(vectorized.VectorizedRTLInjector, "prepare", "gpu.trace.prepare")
    wrap(vectorized, "vector_compute", "gpu.vector.compute")
    wrap(vectorized.VectorizedRTLInjector, "inject_batch",
         "rtl.vectorized.inject_batch", before=open_batch,
         after=close_batch)
    wrap(rtl_injector.RTLInjector, "inject", "rtl.injector.inject",
         after=note_scalar)
    wrap(rtl_campaign, "generate_model_fault_list", "rtl.faultlist.generate")
    for module in (rtl_injector, vectorized):
        wrap(module, "classify_run", "rtl.classify.classify_run")
    wrap(reports.CampaignReport, "add", "rtl.reports.add")
    wrap(rtl_injector.RTLInjector, "describe", "rtl.reports.describe")
    wrap(microbench, "make_microbenchmark", "rtl.microbench.make")
    wrap(checkpoint.CampaignCheckpoint, "record",
         "campaign.checkpoint.record")
    for module in (rtl_campaign, swfi_campaign):
        wrap(module, "run_units", "campaign.engine.run_units")
    for method in ("add_report", "add_tmxm_report", "build"):
        wrap(builder.StreamingDatabaseBuilder, method, "syndrome.builder")
    wrap(database.SyndromeDatabase, "lookup", "syndrome.database.lookup")
    wrap(datafiles, "load_database", "syndrome.load")
    wrap(swfi_injector.SoftwareInjector, "run_golden",
         "swfi.injector.run_golden")
    wrap(swfi_injector.SoftwareInjector, "inject_one",
         "swfi.injector.inject_one", after=injected)
    for model in (models.FaultModel, models.SingleBitFlip,
                  models.RelativeErrorSyndrome):
        for method in ("__call__", "sample_span", "corrupt"):
            if method in vars(model):
                wrap(model, method, "swfi.models.sample")
    for app in {apps.GPUApplication, *apps.APP_FACTORIES.values()}:
        for method in ("run", "is_sdc"):
            if method in vars(app):
                wrap(app, method, f"apps.{method}")
    wrap(apps, "make_application", "apps.make")

    for method in ("submit", "job", "artifact", "post_units", "heartbeat"):
        wrap(client.ServiceClient, method, f"service.client.{method}",
             tag=None if method == "submit" else job_tag)
    wrap(client.ServiceClient, "claim", "service.client.claim",
         after=claimed)
    wrap(worker, "run_job_units", "service.worker.run_job_units",
         tag=shard_tag)
    wrap(worker.CampaignWorker, "run_once", "service.worker.run_once")
    wrap(api.CampaignService, "post_units", "service.api.post_units",
         tag=job_tag)
    for module in (api, scheduler):
        wrap(module, "finalize_sharded_job", "service.scheduler.finalize")
    for method in ("submit", "claim_shard", "heartbeat", "complete_shard",
                   "finish"):
        wrap(store.JobStore, method, f"service.store.{method}")


# -- reading spans ----------------------------------------------------------
def read_spans(path: Path) -> Tuple[List[list], Dict[str, float]]:
    """The spans and counts a traced process wrote at exit."""
    payload = json.loads(path.read_text())
    return payload["spans"], payload["counts"]


class Spans:
    """The spans of every traced process, indexed for per-layer queries.

    Span ids are per process, so each becomes (process index, id).
    """

    def __init__(self, processes: Iterable[Tuple[List[list], Dict]]):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        for pid, (spans, counts) in enumerate(processes):
            self.counts.update(counts)
            for span_id, name, start, end, parent, tag in spans:
                self.spans.append([
                    (pid, span_id), name, start, end,
                    None if parent is None else (pid, parent), tag])
        self.by_id = {span[0]: span for span in self.spans}

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[1] == name]

    def total(self, name: str) -> float:
        return sum(span[3] - span[2] for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def durations(self, name: str) -> List[float]:
        return [span[3] - span[2] for span in self.named(name)]

    def _ancestors(self, span: list):
        parent = span[4]
        while parent is not None:
            span = self.by_id[parent]
            yield span
            parent = span[4]

    def within(self, names: Iterable[str], ancestor: str,
               direct: bool = False) -> float:
        """Time in spans named *names* below a span named *ancestor*."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span[1] not in names:
                continue
            chain = self._ancestors(span)
            if direct:
                parent = next(chain, None)
                hit = parent is not None and parent[1] == ancestor
            else:
                hit = any(up[1] == ancestor for up in chain)
            if hit:
                total += span[3] - span[2]
        return total

    def gaps(self, name: str) -> float:
        """Time between consecutive spans named *name* in one process."""
        by_process: Dict[int, List[list]] = collections.defaultdict(list)
        for span in self.named(name):
            by_process[span[0][0]].append(span)
        total = 0.0
        for spans in by_process.values():
            spans.sort(key=lambda span: span[2])
            total += sum(max(0.0, b[2] - a[3])
                         for a, b in zip(spans, spans[1:]))
        return total


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(spans: Spans, per: float) -> Dict[str, float]:
    """Per-layer metrics from spans, normalised to one round (*per*)."""
    c = spans.counts
    launch_s = spans.total("gpu.sm.launch")
    replayed, scalar = c["replayed"], c["scalar_fallbacks"]
    apps_run_s = spans.within(["apps.run"], "swfi.injector.inject_one",
                               direct=True)
    out = {
        "gpu.sm.launches": spans.count("gpu.sm.launch"),
        "gpu.sm.busy_s": launch_s,
        "gpu.sm.sim_cycles": c["sim_cycles"],
        "gpu.trace.prepare_s": spans.total("gpu.trace.prepare"),
        "gpu.vector.busy_s": spans.total("gpu.vector.compute"),
        "rtl.vectorized.busy_s": (
            spans.total("rtl.vectorized.inject_batch")
            - spans.within(["rtl.injector.inject"],
                            "rtl.vectorized.inject_batch")),
        "rtl.vectorized.unfired": c["unfired"],
        "rtl.vectorized.replayed": replayed,
        "rtl.vectorized.scalar_fallbacks": scalar,
        "rtl.injector.scalar_runs": spans.count("rtl.injector.inject"),
        "rtl.injector.busy_s": spans.total("rtl.injector.inject"),
        "rtl.faultlist.busy_s": spans.total("rtl.faultlist.generate"),
        "rtl.classify.busy_s": spans.total("rtl.classify.classify_run"),
        "rtl.reports.add_s": (spans.total("rtl.reports.add")
                              + spans.total("rtl.reports.describe")),
        "campaign.checkpoint.record_s": spans.total(
            "campaign.checkpoint.record"),
        "syndrome.builder.busy_s": spans.total("syndrome.builder"),
        "swfi.injector.golden_s": spans.total("swfi.injector.run_golden"),
        "swfi.injector.busy_s": spans.total("swfi.injector.inject_one"),
        "apps.run_s": apps_run_s,
        "apps.is_sdc_s": spans.total("apps.is_sdc"),
        "swfi.ops.dyn_instructions": c["dyn_instructions"],
        "swfi.models.sample_s": spans.total("swfi.models.sample"),
        "syndrome.database.lookups": spans.count("syndrome.database.lookup"),
        "syndrome.database.lookup_s": spans.total(
            "syndrome.database.lookup"),
        "service.client.submits": spans.count("service.client.submit"),
        "service.client.polls": spans.count("service.client.job"),
        "service.client.fetches": spans.count("service.client.artifact"),
        "service.worker.claims": c["claims"],
        "service.worker.empty_claims": c["empty_claims"],
        "service.worker.idle_s": spans.gaps("service.worker.run_once"),
        "service.worker.exec_s": spans.total(
            "service.worker.run_job_units"),
        "service.worker.rebuild_s": spans.within(
            REBUILD_SPANS, "service.worker.run_job_units"),
        "service.worker.deliver_s": spans.total(
            "service.client.post_units"),
        "service.api.ingest_s": spans.total("service.api.post_units"),
        "service.scheduler.finalize_s": spans.total(
            "service.scheduler.finalize"),
    }
    for method in ("submit", "claim_shard", "heartbeat", "complete_shard",
                   "finish"):
        out[f"service.store.{method}_s"] = spans.total(
            f"service.store.{method}")
    out = {name: value / per for name, value in out.items()}
    # ratios and per-call figures are independent of the normalisation
    out.update({
        "gpu.sm.host_us_per_cycle": 1e6 * ratio(launch_s, c["sim_cycles"]),
        "rtl.vectorized.replay_ratio": ratio(replayed, replayed + scalar),
        "swfi.ops.host_ns_per_instr": 1e9 * ratio(apps_run_s,
                                                  c["dyn_instructions"]),
        "syndrome.load_s": ratio(spans.total("syndrome.load"),
                                 spans.count("syndrome.load")),
        "service.client.submit_s": median(
            spans.durations("service.client.submit")),
        "service.client.poll_s": median(
            spans.durations("service.client.job")),
        "service.client.fetch_s": median(
            spans.durations("service.client.artifact")),
    })
    return out


# -- the profile pass -------------------------------------------------------
def _module_of(filename: str) -> Optional[str]:
    """``.../src/repro/gpu/sm.py`` -> ``gpu.sm`` (None outside repro)."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    last = len(parts) - 1 - parts[::-1].index("repro")
    return ".".join(parts[last + 1:]) or None


def profile_pass(items: List[Callable[[], object]]) -> Dict[str, float]:
    """cProfile over *items*; latch/op counts and self-time shares."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for item in items:
            item()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    self_time: Dict[str, float] = collections.Counter()
    total = 0.0
    latches = ops_calls = 0
    for (filename, _, function), (_, calls, tt, _, _) in stats.items():
        total += tt
        module = _module_of(filename)
        if module is None:
            continue
        self_time[module] += tt
        if module == "gpu.fault_plane" and function == "latch":
            latches += calls
        if module == "swfi.ops":
            ops_calls += calls
    out = {f"{module}.self_share": ratio(self_time[module], total)
           for module in PROFILED_MODULES}
    out["gpu.fault_plane.latches"] = latches
    out["swfi.ops.calls"] = ops_calls
    return out
