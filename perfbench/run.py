"""Benchmark of the two-level fault-injection chain.

    python3 perfbench/run.py --workload <rtl-grid|swfi-pvf|service-fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run it inside a source checkout.  The workloads, metrics and noise
rules are described in ``perfbench/README.md``; ``BENCHMARK.json`` at the
root lists the metric names, units and bounds this script prints.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Lines before it record provenance, digests and any
failed check.  The exit code is 0 whenever a result was printed; without
the program's sources the script exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
WORKLOADS = ("rtl-grid", "swfi-pvf", "service-fleet")
#: Fresh-process set-ups per untraced run besides the measuring one;
#: setup_s is the median of all of them.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 160


def spawn(args, workdir: Path, setup_only: bool) -> Dict:
    """Run the measuring process once; return its result object."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    # its own session: a timeout or interrupt stops the service
    # processes it started as well
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"measuring process failed ({proc.returncode}):\n"
            f"{stderr[-4000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def declared_metrics(trace: int) -> List[Dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    work = ROOT / ".perfbench-work" / uuid.uuid4().hex
    try:
        setups = [spawn(args, work / f"setup{i}", setup_only=True)
                  for i in range(0 if args.trace else SETUP_PROBES)]
        result = spawn(args, work / "measure", setup_only=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    setup_samples = [s["setup_s"] for s in setups] + [result["setup_s"]]
    measured = dict(result.get("metrics", {}))
    measured["setup_s"] = statistics.median(setup_samples)
    provenance = dict(result["provenance"], workload=args.workload,
                      git_sha=git_sha(), host=socket.gethostname(),
                      nproc=os.cpu_count(), seconds=args.seconds,
                      trace=args.trace, setup_samples_s=setup_samples)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("digests " + json.dumps(result.get("digests"), sort_keys=True))
    print("outcomes " + json.dumps(result.get("outcomes"), sort_keys=True))
    for problem in result.get("problems", []):
        print("FAILED " + problem.replace("\n", " | "))

    failed = int(result["failed"])
    metrics = {}
    off_path = []
    for spec in declared:
        value = measured.get(spec["name"])
        if value is None and args.trace:
            off_path.append(spec["name"])   # layer not on this workload
            value = 0
        elif value is None:
            failed += 1
            print(f"FAILED metric {spec['name']} was not measured")
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if off_path:
        print("not on this workload's path (reported as 0) "
              + " ".join(off_path))
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
