"""Sec. VI CNN criticality — t-MxM tile corruption in LeNET and YOLO.

Injects RTL-characterised t-MxM tile corruption (spatial pattern +
per-element power-law errors from the shipped database) into the CNNs
and measures tolerable vs critical SDCs.  Shape claims from the paper:

* tile corruption produces critical SDCs (misclassifications /
  misdetections) at a far higher rate than single-value corruption;
* LeNET — tiny layers — suffers a higher SDC PVF from a corrupted tile
  than YOLO, whose wide layers dilute an 8x8 tile;
* single bit-flips in LeNET produce (essentially) no misclassifications.
"""

from repro.apps import LeNetApp, YoloApp
from repro.rng import make_rng
from repro.swfi import SingleBitFlip, SoftwareInjector
from repro.swfi.tmxm_injector import TmxmInjector

from conftest import emit, scaled


def _run(database):
    lenet = LeNetApp(batch=2, seed=0)
    yolo = YoloApp(batch=2, seed=0)
    n = scaled(150, minimum=30)
    reports = {}
    for app in (lenet, yolo):
        injector = TmxmInjector(app, database, tile_kind="Random",
                                module="scheduler")
        reports[app.name] = injector.run_campaign(n, seed=3)
    # single-bit-flip criticality baseline on LeNET
    n_bitflip = scaled(150, minimum=30)
    bitflip_critical = _bitflip_critical(lenet, n_bitflip)
    return reports, bitflip_critical, n_bitflip


def _bitflip_critical(app, n):
    injector = SoftwareInjector(app)
    golden = injector.run_golden()
    rng = make_rng(5)
    model = SingleBitFlip()
    critical = 0
    from repro.swfi.ops import SassOps

    total = injector.injectable_total
    for _ in range(n):
        target = int(rng.integers(total))
        ops = SassOps(target=target, corruptor=model(rng))
        try:
            observed = ops.run(app)
        except Exception:
            continue
        if app.is_sdc(golden, observed) and app.is_critical(golden,
                                                            observed):
            critical += 1
    return critical


def test_cnn_criticality(benchmark, database):
    reports, bitflip_critical, n_bitflip = benchmark.pedantic(
        _run, args=(database,), rounds=1, iterations=1)

    lines = ["Sec. VI — t-MxM tile corruption in CNNs "
             "(scheduler syndromes, Random tile)"]
    for name, report in reports.items():
        lines.append(
            f"  {name:8s} injections={report.n_injections} "
            f"SDC PVF={report.pvf:.2f} critical rate="
            f"{report.critical_rate:.2f} patterns={report.pattern_counts}")
    lines.append(
        f"  LeNET single-bit-flip critical SDCs: {bitflip_critical}"
        f"/{n_bitflip} (paper: none)")
    lines.append("  paper: critical errors 20% (LeNET) / 15% (YoloV3); "
                 "LeNET t-MxM PVF 12x the single-value PVF")
    emit("cnn_criticality", "\n".join(lines))

    lenet, yolo = reports["LeNET"], reports["YoloV3"]
    # tile corruption is visible and causes critical errors on both CNNs
    assert lenet.pvf > 0.2
    assert lenet.n_critical > 0
    assert yolo.n_critical > 0
    # the paper's 12x amplification: a corrupted tile hits LeNET far
    # harder than a single corrupted value does
    from repro.swfi import RelativeErrorSyndrome, run_pvf_campaign

    single = run_pvf_campaign(
        LeNetApp(batch=2, seed=0), RelativeErrorSyndrome(database),
        scaled(120, minimum=30), seed=6)
    assert lenet.pvf > 3 * max(single.pvf, 0.01)
    # bit flips almost never flip LeNET's classification (paper: never)
    assert bitflip_critical / n_bitflip < 0.05
