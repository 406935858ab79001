"""Byte-diff guard: software injections vs the pre-optimisation op layer.

``tests/fixtures/artifacts/swfi_pvf_golden.json`` was produced by
:func:`produce` while :class:`~repro.swfi.ops.SassOps` still entered
``np.errstate`` inside every float op, cast every operand and ran the
injection bookkeeping on every op.  The lean op layer claims to change no
observable result; this test is the proof, and the CI
``fault-model-smoke`` job runs it on every push.

The fixture pins, per injection, the outcome, the targeted opcode and
dynamic index, every corrupted opcode, the DUE detail and a digest of
the run's output, plus each app's ``profile_application`` histogram and
golden-output digest:

* MxM, LUD, Quicksort, Gaussian and Hotspot under ``SingleBitFlip``,
  ``RelativeErrorSyndrome`` and its ``multi_thread`` variant (spans
  that can cross op boundaries);
* fp16 and bf16 runs of a small test-local kernel made only of load,
  add, mul, fma and store ops, whose 64-element ops make multi-thread
  spans cross op boundaries often.

Lava and the transformer are left out: numpy's float32 ``exp`` can round
differently on different CPUs.  A mismatch means the op layer changed
behaviour; regenerate the fixture (``python tests/swfi/test_pvf_golden.py``)
only with an explicit reproducibility break, and say so in the changelog.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.apps import make_application
from repro.apps.base import GPUApplication
from repro.datafiles import load_database
from repro.rng import make_rng, spawn_seeds
from repro.swfi import (
    RelativeErrorSyndrome,
    SingleBitFlip,
    SoftwareInjector,
    profile_application,
)

GOLDEN = (Path(__file__).parent.parent / "fixtures" / "artifacts"
          / "swfi_pvf_golden.json")

APPS = ("MxM", "LUD", "Quicksort", "Gaussian", "Hotspot")
APP_SEED = 3
CAMPAIGN_SEED = 2021
#: injections per (app, model) campaign; the small kernel is cheap
INJECTIONS = 6
KERNEL_INJECTIONS = 40


class SmallKernel(GPUApplication):
    """An 8x8 tile product, scaled and biased, in one float format."""

    name = "small-kernel"

    def __init__(self, precision: str, seed: int = 0) -> None:
        self.precision = precision
        rng = make_rng(seed)
        self.a = rng.uniform(-2.0, 2.0, (8, 8)).astype(np.float32)
        self.b = rng.uniform(-2.0, 2.0, (8, 8)).astype(np.float32)
        self.bias = rng.uniform(-1.0, 1.0, 8).astype(np.float32)

    def run(self, ops):
        a = ops.gld(self.a)
        b = ops.gld(self.b)
        acc = np.zeros((8, 8), dtype=np.float32)
        for k in range(8):
            acc = ops.ffma(a[:, k:k + 1], b[k:k + 1, :], acc)
        out = ops.fadd(ops.fmul(acc, np.float32(0.5)),
                       self.bias.reshape(1, -1))
        out[:1, :1] = ops.fadd(out[:1, :1], out[7:, 7:])
        return ops.gst(out)


def _models(database):
    return {
        "bitflip": SingleBitFlip(),
        "syndrome": RelativeErrorSyndrome(database),
        "syndrome-mt": RelativeErrorSyndrome(database, multi_thread=True),
    }


def _digest(output) -> str:
    array = np.ascontiguousarray(output)
    return hashlib.sha256(
        str(array.dtype).encode() + str(array.shape).encode()
        + array.tobytes()).hexdigest()


def _campaign(injector, model, seed: int, n: int) -> list:
    app = injector.app
    observed = []

    def run(ops):  # records what each injected run returned
        output = type(app).run(app, ops)
        observed.append(_digest(output)[:16])
        return output

    rng = make_rng(seed)
    results = []
    app.run = run
    try:
        for _ in range(n):
            observed.clear()
            result = injector.inject_one(model, rng)
            results.append({
                "outcome": result.outcome.value,
                "opcode": result.opcode.value if result.opcode else None,
                "target": result.target,
                "corrupted": [op.value for op in result.corrupted_opcodes],
                "detail": result.detail,
                "output_sha256": observed[0] if observed else None,
            })
    finally:
        del app.run
    return results


def _app_entry(app, models, seeds, n: int) -> dict:
    profile = profile_application(app)
    injector = SoftwareInjector(app)
    return {
        "profile": {op.value: count
                    for op, count in profile.counts.items()},
        "other": profile.other_count,
        "golden_sha256": _digest(injector.run_golden()),
        "injections": {
            label: _campaign(injector, model, seed, n)
            for (label, model), seed in zip(models.items(), seeds)},
    }


def produce() -> str:
    """Serialise every pinned result (the fixture's exact bytes)."""
    models = _models(load_database())
    seeds = iter(spawn_seeds(CAMPAIGN_SEED, 3 * (len(APPS) + 2)))
    apps = {}
    for name in APPS:
        app = make_application(name, seed=APP_SEED)
        apps[name] = _app_entry(app, models, [next(seeds) for _ in models],
                                INJECTIONS)
    for precision in ("fp16", "bf16"):
        app = SmallKernel(precision, seed=APP_SEED)
        apps[f"{app.name}/{precision}"] = _app_entry(
            app, models, [next(seeds) for _ in models], KERNEL_INJECTIONS)
    return json.dumps(apps, indent=1) + "\n"


def test_injections_byte_identical_to_pre_optimisation_ops():
    produced = produce()
    assert produced == GOLDEN.read_text(), (
        "software injection results drifted from the golden fixture — "
        "the op layer is no longer behaviour-preserving")


def test_fixture_covers_spans_crossing_op_boundaries():
    pinned = json.loads(GOLDEN.read_text())
    crossing = [result
                for entry in pinned.values()
                for result in entry["injections"]["syndrome-mt"]
                if len(result["corrupted"]) > 1]
    assert crossing


if __name__ == "__main__":  # regenerate the fixture
    GOLDEN.write_text(produce())
    print(f"wrote {GOLDEN}")
