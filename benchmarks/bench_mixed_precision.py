"""Mixed-precision datapath characterisation — fp32 vs fp16 vs bf16.

Runs the float-opcode RTL grid against each precision's datapath at a
fixed seed, distils the per-format syndromes, and measures the
transformer-block workload's PVF under single-bit flips at every
precision — the reduced-precision analogue of the paper's Figure 5 /
Figure 10 pairing.  Two structural claims ride along:

* the fault-parallel engine stays bit-identical to the scalar path on
  the reduced-precision units (same contract CI enforces for fp32);
* a bit flip in a 16-bit operand word is more likely to corrupt the
  architecturally-visible output than in a 32-bit word (fewer masked
  low-order mantissa bits), so the reduced formats' PVFs are at least
  the fp32 one's within the measurement margin.

Emits ``BENCH_mixed_precision.json`` under ``benchmarks/output/`` with
per-precision grid AVFs, syndrome medians and application PVFs.
"""

import json
import time

from repro.apps import make_application
from repro.gpu import Opcode
from repro.rng import make_rng
from repro.rtl import run_grid
from repro.swfi.injector import SoftwareInjector
from repro.swfi.models import SingleBitFlip
from repro.syndrome.builder import build_database

from conftest import OUTPUT_DIR, emit, scaled

PRECISIONS = ("fp32", "fp16", "bf16")
FLOAT_OPCODES = (Opcode.FADD, Opcode.FMUL, Opcode.FFMA)


def _float_cells(reports, precision):
    unit = "fp32" if precision == "fp32" else precision
    return [r for r in reports if r.module == unit]


def test_mixed_precision(benchmark):
    grid_faults = scaled(60, minimum=30)
    injections = scaled(40, minimum=20)

    grids = {}
    timings = {}

    def _characterise():
        for precision in PRECISIONS:
            t0 = time.perf_counter()
            grids[precision] = run_grid(
                opcodes=FLOAT_OPCODES, input_ranges=("S", "M", "L"),
                n_faults=grid_faults, seed=2021, precision=precision,
                vectorize=True)
            timings[precision] = time.perf_counter() - t0
        return grids

    benchmark.pedantic(_characterise, rounds=1, iterations=1)

    rows = {}
    for precision in PRECISIONS:
        reports = grids[precision]
        assert reports, precision
        # engine contract on the reduced-precision units: the scalar
        # path serialises byte-identically to the vectorized one
        scalar = run_grid(
            opcodes=FLOAT_OPCODES, input_ranges=("S", "M", "L"),
            n_faults=grid_faults, seed=2021, precision=precision,
            vectorize=False)
        assert [r.to_json() for r in scalar] == \
            [r.to_json() for r in reports], precision

        cells = _float_cells(reports, precision)
        assert cells, precision
        total = sum(r.n_injections for r in cells)
        sdc = sum(r.n_sdc for r in cells)
        database = build_database(reports)
        medians = [e.median_relative_error() for e in database.entries()
                   if e.key.precision == precision and e.relative_errors]

        app = make_application("Transformer", seed=3, precision=precision)
        injector = SoftwareInjector(app)
        rng = make_rng(17)
        outcomes = {"MASKED": 0, "SDC": 0, "DUE": 0}
        for _ in range(injections):
            result = injector.inject_one(SingleBitFlip(), rng)
            outcomes[result.outcome.name] += 1

        rows[precision] = {
            "unit_avf": round(sdc / total, 4) if total else 0.0,
            "grid_faults_per_cell": grid_faults,
            "grid_seconds": round(timings[precision], 3),
            "syndrome_entries": len(medians),
            "median_relative_error": (round(float(sorted(medians)[
                len(medians) // 2]), 6) if medians else None),
            "transformer_pvf": round(outcomes["SDC"] / injections, 4),
            "outcomes": outcomes,
        }

    record = {
        "kind": "bench-mixed-precision",
        "seed": 2021,
        "injections": injections,
        "precisions": rows,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_mixed_precision.json").write_text(
        json.dumps(record, indent=2) + "\n")

    lines = [
        "Mixed-precision characterisation — float grid "
        f"({grid_faults} faults/cell) + transformer PVF "
        f"({injections} bit-flip injections)",
        f"  {'format':<8}{'unit AVF':>10}{'median syndrome':>17}"
        f"{'PVF':>8}",
    ]
    for precision, row in rows.items():
        median = (f"{row['median_relative_error']:.3g}"
                  if row["median_relative_error"] is not None else "-")
        lines.append(f"  {precision:<8}{row['unit_avf']:>10.3f}"
                     f"{median:>17}{row['transformer_pvf']:>8.3f}")
    emit("bench_mixed_precision", "\n".join(lines))

    for precision, row in rows.items():
        assert 0.0 <= row["transformer_pvf"] <= 1.0, precision
        assert row["syndrome_entries"] > 0, precision
    # 16-bit words have fewer fault-maskable mantissa bits than 32-bit
    margin = 2.0 / injections ** 0.5
    for precision in ("fp16", "bf16"):
        assert (rows[precision]["transformer_pvf"]
                >= rows["fp32"]["transformer_pvf"] - margin), rows
