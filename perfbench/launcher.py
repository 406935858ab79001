"""Start one campaign-service process for the benchmark.

    python3 perfbench/launcher.py [--after-health URL] [--ready-file F] \
        [--trace-file T] -- <arguments of python -m repro>

Runs ``repro.cli.main`` with the given arguments, after installing from
the outside what the benchmark needs to observe:

* ``--after-health URL``: ``repro.cli.main`` starts only once the
  service at URL answers ``/health``, so a worker that boots beside its
  coordinator does not enter the claim loop's retry backoff;
* ``--ready-file``: the file is created once the process's first
  ``ServiceClient.claim`` has returned, i.e. once a worker has talked to
  its coordinator (readiness is observed, never slept for);
* ``--trace-file``: span wrappers around the service, campaign and
  simulator layers (see ``tracing.py``); spans stay in memory and are
  written to the file when the process exits.

Stop the process with SIGINT; the service verbs shut down cleanly on it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

HEALTH_POLL_S = 0.01


def _mark_first_claim(ready_file: Path) -> None:
    from repro.service.client import ServiceClient

    claim = ServiceClient.claim

    def first_claim(self, *args, **kwargs):
        result = claim(self, *args, **kwargs)
        ServiceClient.claim = claim
        ready_file.touch()
        return result

    ServiceClient.claim = first_claim


def _wait_for_health(url: str, timeout: float = 120.0) -> None:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(HEALTH_POLL_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--after-health", default=None, metavar="URL")
    parser.add_argument("--ready-file", type=Path, default=None)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    from repro import cli

    tracer = None
    if args.trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.ready_file is not None:
        _mark_first_claim(args.ready_file)
    if args.after_health is not None:
        _wait_for_health(args.after_health)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(args.trace_file)


if __name__ == "__main__":
    sys.exit(main())
