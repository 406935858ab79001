"""Artifact layer throughput and memory — columnar vs. legacy reports.

PR 1's checkpoint journals made 1.5M-fault RTL campaigns restartable, but
the merged ``CampaignReport`` still held every record as a Python
dataclass: ~50x the memory of the underlying data, and every aggregate a
Python-level loop.  The columnar backend in ``repro.artifacts`` stores
the same records in numpy structured arrays (~37 bytes/row) while keeping
the old record-sequence API.

This benchmark builds a 100k-record report both ways and measures

* peak RSS (each representation built in a fresh subprocess, interpreter
  baseline subtracted) — the columnar report must stay >= 2x smaller;
* append / serialise / load / merge throughput;
* outcome-aggregate latency (vectorised counts vs. a record loop).

Emits ``BENCH_artifacts.json`` under ``benchmarks/output/`` in the shared
``campaign-metrics`` schema (one unit per measured stage, the comparison
under a ``bench`` key, so ``python -m repro stats`` renders it).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.campaign import CampaignMetrics, validate_metrics
from repro.outcomes import Outcome
from repro.rtl.classify import CorruptedValue
from repro.rtl.reports import (
    CampaignReport,
    DetailedRecord,
    FaultDescriptor,
    GeneralRecord,
)

try:
    from conftest import OUTPUT_DIR, emit, scaled
except ImportError:                      # imported as the --rss worker
    OUTPUT_DIR = Path(__file__).parent / "output"
    emit = scaled = None

_REGS = ("result", "operand_a", "operand_b", "predicate")


def _records(n):
    """Deterministic record stream: ~10% SDC (with details), ~5% DUE."""
    for i in range(n):
        fault = FaultDescriptor("fp32", _REGS[i % 4], lane=i % 32,
                                bit=i % 32, cycle=1000 + i)
        if i % 10 == 0:
            detailed = DetailedRecord(
                fault=fault, opcode="FADD", input_range="M",
                value_kind="f32",
                corrupted=tuple(
                    CorruptedValue(thread=t, address=64 + 4 * t,
                                   golden_bits=0x3F800000 + i,
                                   faulty_bits=(0x3F800000 + i) ^ 0x10)
                    for t in range(2)))
            yield GeneralRecord(fault, Outcome.SDC, 2, True), detailed
        elif i % 17 == 0:
            yield GeneralRecord(fault, Outcome.DUE, 0, True,
                                due_reason="wall-clock guard"), None
        else:
            yield GeneralRecord(fault, Outcome.MASKED, 0, i % 3 != 0), None


def _build_columnar(n):
    report = CampaignReport("FADD", "M", "fp32", n_injections=n)
    for general, detailed in _records(n):
        report.general.append(general)
        if detailed is not None:
            report.detailed.append(detailed)
    return report


def _build_legacy(n):
    """The pre-refactor representation: plain lists of dataclasses."""
    general, detailed = [], []
    for record, extra in _records(n):
        general.append(record)
        if extra is not None:
            detailed.append(extra)
    return general, detailed


def _rss_worker(mode: str, n: int) -> None:
    """Build one representation, print peak RSS (KB on Linux)."""
    import resource

    keep = None
    if mode == "columnar":
        keep = _build_columnar(n)
    elif mode == "legacy":
        keep = _build_legacy(n)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"mode": mode, "n": n, "peak_kb": peak_kb,
                      "held": keep is not None}))


def _measure_rss(mode: str, n: int) -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, __file__, "--rss", mode, str(n)],
        capture_output=True, text=True, check=True, env=env)
    return int(json.loads(out.stdout)["peak_kb"])


def test_artifact_columnar_vs_legacy(benchmark):
    n = scaled(100_000, minimum=20_000)
    metrics = CampaignMetrics("bench/artifacts",
                              meta={"records": n, "detailed_every": 10})

    # -- peak RSS, one fresh interpreter per representation -----------------
    baseline_kb = _measure_rss("baseline", n)
    columnar_kb = _measure_rss("columnar", n)
    legacy_kb = _measure_rss("legacy", n)
    columnar_mb = max(columnar_kb - baseline_kb, 1) / 1024
    legacy_mb = max(legacy_kb - baseline_kb, 1) / 1024
    memory_ratio = legacy_mb / columnar_mb

    # -- throughput ---------------------------------------------------------
    timings = {}

    def _timed(label, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[label] = time.perf_counter() - t0
        metrics.record_unit(len(metrics.units), label=label,
                            seconds=timings[label])
        return result

    report = benchmark.pedantic(lambda: _timed("build_columnar",
                                               lambda: _build_columnar(n)),
                                rounds=1, iterations=1)
    _timed("build_legacy", lambda: _build_legacy(n))
    payload = _timed("serialize", report.to_json)
    clone = _timed("load", lambda: CampaignReport.from_json(payload))
    assert clone.to_dict() == report.to_dict()

    shard = n // 8
    shards = [_build_columnar(shard) for _ in range(8)]
    merged = _timed("merge_8_shards", lambda: CampaignReport.merge(shards))
    assert len(merged.general) == 8 * len(shards[0].general)

    def _aggregate_columnar():
        return (report.general.outcome_counts(), report.n_sdc_single,
                report.mean_corrupted_threads())

    def _aggregate_legacy():
        counts = {o.value: 0 for o in Outcome}
        single = 0
        threads = []
        for record in list(report.general):
            counts[record.outcome.value] += 1
            if record.outcome is Outcome.SDC:
                threads.append(record.n_corrupted_threads)
                single += record.n_corrupted_threads == 1
        return counts, single, sum(threads) / len(threads)

    fast = _timed("aggregate_columnar", _aggregate_columnar)
    slow = _timed("aggregate_legacy", _aggregate_legacy)
    assert fast[0] == slow[0] and fast[1] == slow[1]

    metrics.finish()
    record = validate_metrics({
        **metrics.to_dict(),
        "bench": {
            "records": n,
            "payload_bytes": len(payload),
            "peak_rss_mb": {"baseline": round(baseline_kb / 1024, 1),
                            "columnar": round(columnar_mb, 1),
                            "legacy": round(legacy_mb, 1)},
            "memory_ratio": round(memory_ratio, 2),
            "seconds": {k: round(v, 4) for k, v in timings.items()},
            "append_per_second": round(n / timings["build_columnar"], 1),
            "load_per_second": round(n / timings["load"], 1),
            "aggregate_speedup": round(
                timings["aggregate_legacy"]
                / max(timings["aggregate_columnar"], 1e-9), 1),
        },
    })
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_artifacts.json").write_text(
        json.dumps(record, indent=2) + "\n")

    text = (
        f"Artifact layer — {n} general records, columnar vs. legacy\n"
        f"  peak RSS    columnar {columnar_mb:7.1f} MB   "
        f"legacy {legacy_mb:7.1f} MB   ({memory_ratio:.1f}x smaller)\n"
        f"  build       {timings['build_columnar']:.3f}s   "
        f"(legacy {timings['build_legacy']:.3f}s)\n"
        f"  serialize   {timings['serialize']:.3f}s   "
        f"load {timings['load']:.3f}s   "
        f"merge x8 {timings['merge_8_shards']:.3f}s\n"
        f"  aggregates  {timings['aggregate_columnar'] * 1e3:.2f}ms "
        f"vectorised vs {timings['aggregate_legacy'] * 1e3:.2f}ms loop")
    emit("bench_artifacts", text)

    assert memory_ratio >= 2.0, record["bench"]


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--rss":
        _rss_worker(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit("usage: bench_artifacts.py --rss "
                 "{baseline|columnar|legacy} N")
