"""RTL campaign orchestration: the paper's 144-campaign grid.

A *campaign* is one (instruction, input range, module) cell: a fault list
is generated for the module, the micro-benchmark is executed once per
fault, and every outcome lands in a :class:`CampaignReport`.  The paper's
grid covers 12 instructions x 3 input ranges x the modules each
instruction exercises (functional units only for arithmetic opcodes,
scheduler and pipeline for all of them — FUs are idle during GLD/GST/BRA/
ISET, so they are not injected there).

Each campaign shape — one cell, the instruction grid, the t-MxM tile
grid, a stuck-at signature campaign — is a
:class:`~repro.campaign.spec.CampaignSpec` built here (``cell_spec``,
``grid_spec``, ``tmxm_spec``, ``signature_spec``) and run by the shared
engine: campaigns shard into deterministic seed-indexed fault batches
(cell-level by default; intra-cell with ``batch_size``, so one
12 000-fault cell cannot serialise a worker pool), fan out over
``n_jobs`` worker processes each owning its own SM model, journal
completed batches to a JSONL checkpoint, and merge per-batch reports in
batch order — bit-identical to the serial run for a fixed
``(seed, batch_size)``, and to the adaptive runners and the service's
shards, which run the same specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

# ``run_units`` stays a module attribute: perfbench/tracing.py wraps it
# by name, although specs reach the engine through repro.campaign.spec
from ..campaign.engine import (  # noqa: F401
    UnitTimeout,
    WorkUnit,
    plan_batches,
    run_units,
    wall_clock_limit,
)
from ..campaign.progress import ProgressReporter
from ..campaign.spec import CampaignSpec, Cell
from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignError
from ..gpu.fault_plane import (
    FAULT_MODELS,
    FaultModel,
    FaultPlane,
    ModuleName,
    fault_to_dict,
)
from ..gpu.isa import (
    CHARACTERIZED_OPCODES,
    FP32_OPCODES,
    INT_OPCODES,
    Opcode,
    SFU_OPCODES,
)
from ..gpu.sm import SMConfig
from ..rng import spawn_seed_range, spawn_seeds
from .classify import Outcome, RunClassification
from .faultlist import generate_model_fault_list
from .injector import RTLInjector
from .microbench import INPUT_RANGES, Microbenchmark, make_microbenchmark
from .reports import CampaignReport
from .signatures import SignatureRecord, SignatureReport
from .tmxm import TILE_KINDS, make_tmxm_bench

__all__ = [
    "cell_spec",
    "check_signature_suite",
    "default_signature_apps",
    "grid_spec",
    "modules_for_opcode",
    "run_campaign",
    "run_grid",
    "run_signature_campaign",
    "run_tmxm_grid",
    "signature_spec",
    "tmxm_spec",
    "MODULE_INSTRUCTIONS",
    "TMXM_MODULES",
]

#: Table I's "Instructions" column: which opcodes exercise each module.
#: ``register_file`` is only injectable on an SM configured with
#: ``ecc_enabled=False`` (the memory-model validation experiment).
MODULE_INSTRUCTIONS: Dict[str, Tuple[Opcode, ...]] = {
    ModuleName.FP32: FP32_OPCODES,
    ModuleName.INT: INT_OPCODES,
    ModuleName.SFU: SFU_OPCODES,
    ModuleName.SFU_CONTROLLER: SFU_OPCODES,
    ModuleName.SCHEDULER: CHARACTERIZED_OPCODES,
    ModuleName.PIPELINE: CHARACTERIZED_OPCODES,
    "register_file": CHARACTERIZED_OPCODES,
    # reduced-precision float datapaths: exercised by the same float
    # opcodes, selected by precision-aware campaigns instead of ALL
    ModuleName.FP16: FP32_OPCODES,
    ModuleName.BF16: FP32_OPCODES,
}

#: Modules the t-MxM mini-app characterises (paper Fig. 7).  The tile
#: campaigns stay fp32: they target the scheduler and pipeline, whose
#: fault behaviour is precision-agnostic.
TMXM_MODULES: Tuple[str, ...] = (ModuleName.SCHEDULER, ModuleName.PIPELINE)


def modules_for_opcode(opcode: Opcode,
                       precision: str = "fp32") -> List[str]:
    """Modules whose campaign grid includes *opcode*.

    A reduced *precision* substitutes its float datapath for the fp32
    unit — float opcodes then stress the fp16/bf16 module while the
    integer/SFU/scheduler/pipeline cells are unchanged.
    """
    try:
        float_module = ModuleName.FLOAT_BY_PRECISION[precision]
    except KeyError:
        raise CampaignError(f"unknown float precision {precision!r}")
    modules = []
    for module in ModuleName.ALL:
        if module == ModuleName.FP32:
            module = float_module
        if opcode in MODULE_INSTRUCTIONS[module]:
            modules.append(module)
    return modules


# -- work-unit specs ---------------------------------------------------------
@dataclass(frozen=True)
class _BenchSpec:
    """Picklable recipe for rebuilding a workload inside a worker.

    ``micro``/``tmxm`` specs carry factory arguments (cheap to rebuild,
    deterministic); ``bench`` specs ship a prebuilt
    :class:`Microbenchmark` verbatim — the path custom workloads take.
    """

    kind: str                       # "micro" | "tmxm" | "bench"
    opcode: str = ""                # micro
    input_range: str = ""           # micro
    tile: str = ""                  # tmxm
    use_shared: bool = False        # tmxm
    seed: int = 0                   # micro / tmxm construction seed
    bench: Optional[Microbenchmark] = None  # bench
    precision: str = "fp32"         # micro float format

    def build(self) -> Microbenchmark:
        if self.kind == "micro":
            return make_microbenchmark(Opcode(self.opcode),
                                       self.input_range, seed=self.seed,
                                       precision=self.precision)
        if self.kind == "tmxm":
            return make_tmxm_bench(self.tile, seed=self.seed,
                                   use_shared_memory=self.use_shared)
        return self.bench

    @property
    def cache_key(self) -> Tuple:
        if self.kind == "bench":
            return ("bench", self.bench.name)
        return (self.kind, self.opcode, self.input_range, self.tile,
                self.use_shared, self.seed, self.precision)


@dataclass(frozen=True)
class _CellSpec:
    """What one RTL work unit injects into: a workload x module pair.

    ``fault_model`` selects the injected model (default transient — the
    byte-compatible historical campaign); the burst parameters are only
    consulted by ``fault_model="burst"`` cells.
    """

    bench: _BenchSpec
    module: str
    fault_kind: Optional[str] = None  # "data" | "control" | None (both)
    fault_model: str = "transient"
    burst_width: int = 4
    burst_window: int = 4


@dataclass(frozen=True)
class _SignatureSpec:
    """One (fault, application) unit of a permanent-fault campaign.

    The fault list is a deterministic function of ``(module, fault_model,
    list_seed, n_faults, fault_kind)``, so every worker regenerates the
    identical list and indexes it with ``fault_index`` — the same
    regenerate-don't-ship contract the transient units use for their
    fault batches.
    """

    bench: _BenchSpec
    app: str
    apps: Tuple[str, ...]
    fault_index: int
    module: str
    fault_model: str
    fault_kind: Optional[str]
    n_faults: int
    list_seed: int


# -- worker-local state ------------------------------------------------------
class _RTLWorkerState:
    """One SM model per worker, with golden runs cached per workload.

    A worker executes many fault batches, often of the same cell; the
    golden (fault-free) pass — which also fixes the fault list's cycle
    domain — runs once per workload per worker, not once per batch.
    """

    def __init__(self, injector: Optional[RTLInjector] = None,
                 config: Optional[SMConfig] = None) -> None:
        self.injector = injector or RTLInjector(config=config)
        self._golden: Dict[Tuple, Tuple[Microbenchmark, Any]] = {}
        self._vectorized = None
        self._prepared: Dict[Tuple, Any] = {}
        self._signature_lists: Dict[Tuple, List[FaultModel]] = {}

    def bench_and_golden(self, spec: _BenchSpec):
        key = spec.cache_key
        if key not in self._golden:
            bench = spec.build()
            self._golden[key] = (bench, self.injector.run_golden(bench))
        return self._golden[key]

    def vectorized(self):
        """Lazily built batch engine sharing this worker's SM model."""
        if self._vectorized is None:
            from .vectorized import VectorizedRTLInjector
            self._vectorized = VectorizedRTLInjector(self.injector)
        return self._vectorized

    def prepared(self, spec: _BenchSpec):
        """Golden trace of one workload, recorded once per worker.

        The instrumented run doubles as the golden reference, so it also
        seeds :meth:`bench_and_golden`'s cache (recording never changes
        architectural results).
        """
        key = spec.cache_key
        if key not in self._prepared:
            if key in self._golden:
                bench = self._golden[key][0]
            else:
                bench = spec.build()
            workload = self.vectorized().prepare(bench)
            self._prepared[key] = workload
            self._golden.setdefault(key, (bench, workload.golden))
        return self._prepared[key]

    def signature_fault(self, spec: _SignatureSpec) -> FaultModel:
        """One fault of the campaign's deterministic permanent-fault list.

        A worker executes many (fault, app) units of the same campaign;
        the list is generated once per worker and indexed per unit.
        Permanent faults are active from cycle 0, so the list needs no
        golden-run cycle domain.
        """
        key = (spec.module, spec.fault_model, spec.list_seed,
               spec.n_faults, spec.fault_kind)
        if key not in self._signature_lists:
            self._signature_lists[key] = generate_model_fault_list(
                self.injector.plane, spec.module, spec.n_faults,
                total_cycles=1, seed=spec.list_seed,
                fault_model=spec.fault_model, kind=spec.fault_kind)
        return self._signature_lists[key][spec.fault_index]


def _rtl_state(config: Optional[SMConfig] = None) -> _RTLWorkerState:
    """Picklable worker-state factory (``functools.partial`` target)."""
    return _RTLWorkerState(config=config)


def _vectorized_unit(module: str, vectorize,
                     timeout: Optional[float] = None) -> bool:
    """Resolve the campaign's ``vectorize`` switch for one cell.

    ``False`` forces the historical scalar path.  ``True`` and ``"auto"``
    route every trace-resolvable module through the batch engine (which
    itself falls back to scalar per fault when a fired transient is
    outside its replayable set); ``register_file`` SRAM faults bypass
    ``plane.latch`` and therefore always run scalar.  With a wall-clock
    ``timeout``, ``"auto"`` also stays scalar: the replay engine is
    schedule-bounded and never trips the per-simulation guard, so only
    an explicit ``vectorize=True`` opts into its
    guarded-scalar-fallback-only timeout semantics.
    """
    if not vectorize:
        return False
    if timeout is not None and vectorize == "auto":
        return False
    return module not in FaultPlane.PERSISTENT_STATE_MODULES


def _run_rtl_unit(state: _RTLWorkerState, unit: WorkUnit,
                  timeout: Optional[float] = None,
                  vectorize="auto") -> CampaignReport:
    """Engine unit runner: one fault batch against one campaign cell."""
    spec: _CellSpec = unit.spec
    if _vectorized_unit(spec.module, vectorize, timeout):
        workload = state.prepared(spec.bench)
        bench, golden = workload.bench, workload.golden
        faults = generate_model_fault_list(
            state.injector.plane, spec.module, unit.size, golden.cycles,
            seed=unit.seed, fault_model=spec.fault_model,
            kind=spec.fault_kind, burst_width=spec.burst_width,
            burst_window=spec.burst_window)
        # non-transient models are routed to the scalar interpreter
        # inside inject_batch; the batch call stays uniform here
        classifications = state.vectorized().inject_batch(
            workload, faults, timeout=timeout)
        report = CampaignReport(
            instruction=bench.opcode.value,
            input_range=bench.input_range,
            module=spec.module,
            precision=bench.precision,
        )
        for fault, classification in zip(faults, classifications):
            report.add(
                state.injector.describe(fault),
                classification,
                opcode=bench.opcode.value,
                value_kind=bench.value_kind,
            )
        return report
    bench, golden = state.bench_and_golden(spec.bench)
    faults = generate_model_fault_list(
        state.injector.plane, spec.module, unit.size, golden.cycles,
        seed=unit.seed, fault_model=spec.fault_model,
        kind=spec.fault_kind, burst_width=spec.burst_width,
        burst_window=spec.burst_window)
    report = CampaignReport(
        instruction=bench.opcode.value,
        input_range=bench.input_range,
        module=spec.module,
        precision=bench.precision,
    )
    for fault in faults:
        try:
            with wall_clock_limit(timeout):
                classification = state.injector.inject(bench, golden,
                                                       fault)
        except UnitTimeout:
            classification = RunClassification(
                Outcome.DUE,
                due_reason=f"wall-clock guard: injection exceeded "
                           f"{timeout:g}s",
                fault_fired=bool(getattr(fault, "fired", False)),
            )
        report.add(
            state.injector.describe(fault),
            classification,
            opcode=bench.opcode.value,
            value_kind=bench.value_kind,
        )
    return report


def _run_signature_unit(state: _RTLWorkerState, unit: WorkUnit,
                        timeout: Optional[float] = None
                        ) -> SignatureReport:
    """Engine unit runner: one (fault, application) signature exercise."""
    spec: _SignatureSpec = unit.spec
    bench, golden = state.bench_and_golden(spec.bench)
    fault = state.signature_fault(spec)
    try:
        with wall_clock_limit(timeout):
            classification = state.injector.inject(bench, golden, fault)
    except UnitTimeout:
        classification = RunClassification(
            Outcome.DUE,
            due_reason=f"wall-clock guard: injection exceeded "
                       f"{timeout:g}s",
            fault_fired=bool(getattr(fault, "fired", False)),
        )
    report = SignatureReport(
        module=spec.module,
        fault_model=spec.fault_model,
        n_faults=spec.n_faults,
        apps=list(spec.apps),
        seed=spec.list_seed,
    )
    report.add(SignatureRecord.from_classification(
        spec.fault_index, spec.app, fault_to_dict(fault), classification))
    return report


# -- campaign specs ----------------------------------------------------------
def _validate_bench_module(bench: Microbenchmark, module: str) -> None:
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    # the module must be exercised by at least one opcode the program
    # actually executes (FUs are idle during memory/control opcodes)
    program_opcodes = set(bench.program.opcode_histogram())
    if not program_opcodes & set(MODULE_INSTRUCTIONS[module]):
        raise CampaignError(
            f"{module} is idle while executing {bench.name}; the paper "
            "does not inject there")


def _check_fault_model(fault_model: str) -> None:
    if fault_model not in FAULT_MODELS:
        raise CampaignError(
            f"unknown fault model {fault_model!r}; "
            f"choose from {sorted(FAULT_MODELS)}")


def _empty_cell_report(spec: _CellSpec) -> CampaignReport:
    bench = spec.bench.build()
    return CampaignReport(instruction=bench.opcode.value,
                          input_range=bench.input_range, module=spec.module,
                          precision=bench.precision)


def _plan_cell(spec: _CellSpec, n_faults: int, seed: int,
               batch_size: Optional[int], base_index: int,
               label: str) -> Cell:
    """Shard one cell's fault list into seed-indexed work units.

    With ``batch_size=None`` the cell is a single unit drawing its
    faults directly from the cell seed — byte-compatible with the
    historical serial campaign.  With a batch size, batch *i* draws from
    child seed *i* of the cell seed, so any worker count or resume
    boundary reproduces the same fault stream.  A zero-fault cell plans
    no unit.
    """
    if batch_size is None:
        units = [WorkUnit(index=base_index, size=n_faults, seed=seed,
                          spec=spec, label=label)] if n_faults else []
    else:
        sizes = plan_batches(n_faults, batch_size)
        seeds = spawn_seed_range(seed, 0, len(sizes))
        units = [
            WorkUnit(index=base_index + i, size=size, seed=batch_seed,
                     spec=spec, label=f"{label} [{i + 1}/{len(sizes)}]")
            for i, (size, batch_seed) in enumerate(zip(sizes, seeds))
        ]
    return Cell(label, units, partial(_empty_cell_report, spec))


def _rtl_spec(cells: List[Cell], header: dict, timeout: Optional[float],
              vectorize, config: Optional[SMConfig]) -> CampaignSpec:
    return CampaignSpec(
        cells=cells, header=header, schema="rtl-report",
        stage=header["campaign"],
        run_unit=partial(_run_rtl_unit, timeout=timeout, vectorize=vectorize),
        state_factory=partial(_rtl_state, config))


def cell_spec(bench: Microbenchmark, module: str, n_faults: int,
              seed: int = 0, kind: Optional[str] = None, *,
              batch_size: Optional[int] = None,
              timeout: Optional[float] = None,
              config: Optional[SMConfig] = None,
              vectorize="auto",
              fault_model: str = "transient",
              burst_width: int = 4,
              burst_window: int = 4) -> CampaignSpec:
    """The spec of one (workload, module) cell: see :func:`run_campaign`.

    :func:`run_campaign`, the adaptive cell runner and the service's rtl
    jobs all run this spec, so each resumes the others' journals.
    """
    if n_faults < 0:
        raise CampaignError("n_faults must be non-negative")
    _validate_bench_module(bench, module)
    _check_fault_model(fault_model)
    spec = _CellSpec(bench=_BenchSpec(kind="bench", bench=bench),
                     module=module, fault_kind=kind,
                     fault_model=fault_model, burst_width=burst_width,
                     burst_window=burst_window)
    header = {
        "campaign": "rtl-cell",
        "bench": bench.name,
        "module": module,
        "fault_kind": kind,
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    # fp32 headers stay byte-identical so pre-precision journals resume
    if bench.precision != "fp32":
        header["precision"] = bench.precision
    # likewise transient headers predate the fault-model layer
    if fault_model != "transient":
        header["fault_model"] = fault_model
    cell = _plan_cell(spec, n_faults, seed, batch_size, 0,
                      f"{bench.name}/{module}")
    return _rtl_spec([cell], header, timeout, vectorize, config)


def grid_spec(opcodes: Iterable[Opcode] = CHARACTERIZED_OPCODES,
              input_ranges: Iterable[str] = ("S", "M", "L"),
              modules: Optional[Sequence[str]] = None,
              n_faults: int = 200,
              seed: int = 0, *,
              batch_size: Optional[int] = None,
              timeout: Optional[float] = None,
              config: Optional[SMConfig] = None,
              vectorize="auto",
              precision: str = "fp32") -> CampaignSpec:
    """The spec of an instruction grid: see :func:`run_grid`."""
    opcodes = list(opcodes)
    input_ranges = list(input_ranges)
    for key in input_ranges:
        if key not in INPUT_RANGES:
            raise CampaignError(f"unknown input range {key!r}")
    coords = [(opcode, range_key, module)
              for opcode in opcodes for range_key in input_ranges
              for module in modules_for_opcode(opcode, precision)
              if modules is None or module in modules]
    cells: List[Cell] = []
    base = 0
    for (opcode, range_key, module), cell_seed in zip(
            coords, spawn_seeds(seed, len(coords))):
        spec = _CellSpec(
            bench=_BenchSpec(kind="micro", opcode=opcode.value,
                             input_range=range_key, seed=cell_seed,
                             precision=precision),
            module=module)
        cells.append(_plan_cell(spec, n_faults, cell_seed, batch_size, base,
                                f"{opcode.value}/{range_key}/{module}"))
        base += len(cells[-1].units)
    header = {
        "campaign": "rtl-grid",
        "opcodes": [o.value for o in opcodes],
        "input_ranges": list(input_ranges),
        "modules": None if modules is None else list(modules),
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    # fp32 headers stay byte-identical so pre-precision journals resume
    if precision != "fp32":
        header["precision"] = precision
    return _rtl_spec(cells, header, timeout, vectorize, config)


def tmxm_spec(tile_kinds: Iterable[str] = TILE_KINDS,
              modules: Iterable[str] = TMXM_MODULES,
              n_faults: int = 200,
              seed: int = 0, *,
              use_shared_memory: bool = False,
              batch_size: Optional[int] = None,
              timeout: Optional[float] = None,
              config: Optional[SMConfig] = None,
              vectorize="auto") -> CampaignSpec:
    """The spec of the t-MxM tile grid: see :func:`run_tmxm_grid`."""
    tile_kinds = list(tile_kinds)
    modules = list(modules)
    for kind in tile_kinds:
        if kind not in TILE_KINDS:
            raise CampaignError(f"unknown tile kind {kind!r}")
    coords = [(kind, module) for kind in tile_kinds for module in modules]
    cells: List[Cell] = []
    base = 0
    for (kind, module), cell_seed in zip(coords,
                                         spawn_seeds(seed, len(coords))):
        spec = _CellSpec(
            bench=_BenchSpec(kind="tmxm", tile=kind,
                             use_shared=use_shared_memory, seed=cell_seed),
            module=module)
        cells.append(_plan_cell(spec, n_faults, cell_seed, batch_size, base,
                                f"tmxm/{kind}/{module}"))
        base += len(cells[-1].units)
    header = {
        "campaign": "rtl-tmxm",
        "tiles": tile_kinds,
        "modules": modules,
        "use_shared_memory": bool(use_shared_memory),
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    return _rtl_spec(cells, header, timeout, vectorize, config)


def default_signature_apps(module: str) -> List[str]:
    """The default application suite characterising *module*.

    Scheduler and pipeline defects are exercised by the three t-MxM tile
    workloads (where the paper's control-logic effects concentrate);
    functional-unit defects by the mid-range micro-benchmark of every
    opcode the module executes.
    """
    if module in TMXM_MODULES:
        return [f"tmxm/{kind}" for kind in TILE_KINDS]
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    return [f"{op.value}/M" for op in MODULE_INSTRUCTIONS[module]]


def _signature_bench_spec(app: str, bench_seed: int) -> _BenchSpec:
    """Parse one app-suite entry (``tmxm/<Tile>`` or ``<OPCODE>/<RANGE>``)."""
    head, _, tail = app.partition("/")
    if head == "tmxm":
        if tail not in TILE_KINDS:
            raise CampaignError(
                f"unknown t-MxM tile {tail!r} in app {app!r}; "
                f"choose from {list(TILE_KINDS)}")
        return _BenchSpec(kind="tmxm", tile=tail, seed=bench_seed)
    try:
        opcode = Opcode(head)
    except ValueError:
        raise CampaignError(
            f"unknown opcode {head!r} in app {app!r}") from None
    range_key = tail or "M"
    if range_key not in INPUT_RANGES:
        raise CampaignError(
            f"unknown input range {range_key!r} in app {app!r}")
    return _BenchSpec(kind="micro", opcode=opcode.value,
                      input_range=range_key, seed=bench_seed)


def _signature_suite(module: str, apps: Optional[Sequence[str]],
                     seed: int) -> List[Tuple[str, _BenchSpec]]:
    """The app suite (default: the module's) with each app's recipe."""
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    app_list = list(apps) if apps else default_signature_apps(module)
    if not app_list:
        raise CampaignError("the application suite must not be empty")
    return [(app, _signature_bench_spec(app, bench_seed))
            for app, bench_seed in zip(app_list,
                                       spawn_seeds(seed, len(app_list)))]


def check_signature_suite(module: str,
                          apps: Optional[Sequence[str]] = None) -> None:
    """Reject a suite holding a workload that leaves *module* idle.

    Builds every workload once, so it runs where a failure should
    surface early: before a campaign starts, or when a job is submitted.
    """
    for _, bench in _signature_suite(module, apps, 0):
        _validate_bench_module(bench.build(), module)


def signature_spec(module: str, n_faults: int, seed: int = 0,
                   apps: Optional[Sequence[str]] = None,
                   fault_model: str = "stuck-at",
                   kind: Optional[str] = None, *,
                   timeout: Optional[float] = None,
                   config: Optional[SMConfig] = None) -> CampaignSpec:
    """The spec of a signature campaign: see
    :func:`run_signature_campaign`.

    Planning builds no workload, which keeps it cheap enough for the
    service to re-plan a stuck-at job on every claim;
    :func:`check_signature_suite` is the up-front workload check.
    """
    _check_fault_model(fault_model)
    if fault_model != "stuck-at":
        raise CampaignError(
            "signature campaigns characterise permanent faults; "
            f"model {fault_model!r} samples per-injection outcomes — "
            "use run_campaign for it")
    if n_faults < 0:
        raise CampaignError("n_faults must be non-negative")
    suite = _signature_suite(module, apps, seed)
    app_list = [app for app, _ in suite]
    units = [
        WorkUnit(index=fault_index * len(suite) + app_index, size=1,
                 seed=seed,
                 spec=_SignatureSpec(
                     bench=bench, app=app, apps=tuple(app_list),
                     fault_index=fault_index, module=module,
                     fault_model=fault_model, fault_kind=kind,
                     n_faults=n_faults, list_seed=seed),
                 label=f"{module}/{fault_model} "
                       f"fault {fault_index + 1}/{n_faults} x {app}")
        for fault_index in range(n_faults)
        for app_index, (app, bench) in enumerate(suite)
    ]
    header = {
        "campaign": "rtl-signature",
        "module": module,
        "fault_model": fault_model,
        "fault_kind": kind,
        "n_faults": int(n_faults),
        "apps": app_list,
        "seed": int(seed),
    }
    empty = partial(SignatureReport, module=module, fault_model=fault_model,
                    n_faults=n_faults, apps=app_list, seed=seed)
    return CampaignSpec(
        cells=[Cell(f"{module}/{fault_model}", units, empty)],
        header=header, schema="signature-report", stage="rtl-signature",
        run_unit=partial(_run_signature_unit, timeout=timeout),
        state_factory=partial(_rtl_state, config))


def _shared_state(injector: Optional[RTLInjector],
                  config: Optional[SMConfig]) -> Optional[_RTLWorkerState]:
    """A serial run's worker state around the caller's injector, if any."""
    if injector is None:
        return None
    return _RTLWorkerState(injector=injector, config=config)


# -- campaign runners --------------------------------------------------------
def run_campaign(
    bench: Microbenchmark,
    module: str,
    n_faults: int,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    kind: Optional[str] = None,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    fault_model: str = "transient",
    burst_width: int = 4,
    burst_window: int = 4,
) -> CampaignReport:
    """Run one fault-injection campaign cell and return its report.

    ``fault_model`` selects what is injected: ``"transient"`` (the
    paper's single-event upsets — the default, byte-identical to the
    pre-fault-model engine), or ``"burst"`` (targeted multi-bit window
    strikes of ``burst_width`` bits over ``burst_window`` cycles; the
    sampled classifications still land in a :class:`CampaignReport`).
    Permanent stuck-at campaigns characterise per-application error
    signatures instead of per-injection outcomes — use
    :func:`run_signature_campaign` for those (``"stuck-at"`` here runs
    the single-workload sampling shape anyway if asked).

    ``kind`` restricts the fault list to ``"data"`` or ``"control"``
    flip-flops (used by ablation studies); the default samples both.
    ``vectorize`` selects the fault-parallel batch engine
    (:mod:`repro.rtl.vectorized`): ``"auto"``/``True`` resolve and
    replay each batch against one recorded golden trace — bit-identical
    to the scalar path for a fixed seed — while ``False`` forces the
    historical one-simulation-per-fault execution.  ``"auto"`` reverts
    to scalar when ``timeout`` is set (the replay engine is
    schedule-bounded, so the per-simulation wall-clock guard only
    applies to its scalar fallbacks; pass ``vectorize=True`` to keep
    the batch engine anyway).
    ``batch_size`` shards the fault list into deterministic seed-indexed
    batches that ``n_jobs`` worker processes execute concurrently (each
    worker builds its own SM from *config*; *injector* must be None);
    ``checkpoint``/``resume`` journal finished batches, ``timeout``
    converts a runaway injection into a DUE.  For a fixed
    ``(seed, batch_size)`` the merged report is bit-identical across any
    ``n_jobs`` and any kill/resume boundary.  ``metrics`` collects
    per-batch telemetry (created automatically for checkpointed runs and
    written next to the journal); ``n_faults=0`` yields an empty report.
    """
    spec = cell_spec(bench, module, n_faults, seed, kind,
                     batch_size=batch_size, timeout=timeout, config=config,
                     vectorize=vectorize, fault_model=fault_model,
                     burst_width=burst_width, burst_window=burst_window)
    results = spec.run(n_jobs=n_jobs, state=_shared_state(injector, config),
                       checkpoint=checkpoint, resume=resume,
                       progress=progress, metrics=metrics, cancel=cancel)
    return spec.merge(results)[0]


def run_signature_campaign(
    module: str,
    n_faults: int,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    fault_model: str = "stuck-at",
    injector: Optional[RTLInjector] = None,
    kind: Optional[str] = None,
    *,
    n_jobs: int = 1,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
) -> SignatureReport:
    """Characterise *n_faults* permanent defects across an app suite.

    A permanent fault has no single Masked/SDC/DUE outcome: the same
    defect behaves differently per workload, so the campaign's unit is
    one (fault, application) pair — the fault list is sampled once
    (uniform over the module's flip-flop bits × stuck-at polarity, from
    the fault-model seed namespace) and every fault is exercised by
    every application of *apps* (``tmxm/<Tile>`` or ``<OPCODE>/<RANGE>``
    entries; defaults to :func:`default_signature_apps`).  Units are
    planned fault-major and merged in unit order, so the report is
    bit-identical across any ``n_jobs`` and any checkpoint/resume
    boundary, exactly like the transient campaigns.
    """
    spec = signature_spec(module, n_faults, seed, apps, fault_model, kind,
                          timeout=timeout, config=config)
    check_signature_suite(module, apps)
    results = spec.run(n_jobs=n_jobs, state=_shared_state(injector, config),
                       checkpoint=checkpoint, resume=resume,
                       progress=progress, metrics=metrics, cancel=cancel)
    return spec.merge(results)[0]


def run_grid(
    opcodes: Iterable[Opcode] = CHARACTERIZED_OPCODES,
    input_ranges: Iterable[str] = ("S", "M", "L"),
    modules: Optional[Sequence[str]] = None,
    n_faults: int = 200,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    n_jobs: int = 1,
    *,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    consume: Optional[Callable[[int, CampaignReport], None]] = None,
    collect: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    precision: str = "fp32",
) -> List[CampaignReport]:
    """Run the full campaign grid; returns one report per cell.

    Cells pair every opcode and input range with the modules that opcode
    exercises (optionally filtered by *modules*).  Each cell receives an
    independent child seed so the grid is reproducible yet uncorrelated
    — and, like the paper's 12-node fault-injection server, the work
    fans out over ``n_jobs`` worker processes (each builds its own SM
    model; *injector* must be None).  ``batch_size`` additionally shards
    *within* cells so one large cell cannot serialise the pool;
    ``checkpoint``/``resume`` journal finished batches to JSONL;
    ``consume`` streams per-batch reports (in deterministic unit order)
    to a downstream builder, and ``collect=False`` drops them afterwards
    to bound memory on huge grids.  ``vectorize`` (default ``"auto"``)
    runs each unit's fault batch through the trace-driven fault-parallel
    engine, whose merged reports are bit-identical to ``vectorize=False``
    for the same seed.  ``precision`` re-runs the float-opcode cells in
    a reduced format: micro-benchmarks sample that format's own S/M/L
    ranges, programs execute on the fp16/bf16 datapath, and its module
    replaces ``fp32`` in the grid — non-float cells are unaffected.
    """
    spec = grid_spec(opcodes, input_ranges, modules, n_faults, seed,
                     batch_size=batch_size, timeout=timeout, config=config,
                     vectorize=vectorize, precision=precision)
    results = spec.run(n_jobs=n_jobs, state=_shared_state(injector, config),
                       checkpoint=checkpoint, resume=resume,
                       progress=progress, metrics=metrics, consume=consume,
                       collect=collect, cancel=cancel)
    return spec.merge(results) if collect else []


def run_tmxm_grid(
    tile_kinds: Iterable[str] = TILE_KINDS,
    modules: Iterable[str] = TMXM_MODULES,
    n_faults: int = 200,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    n_jobs: int = 1,
    *,
    use_shared_memory: bool = False,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    consume: Optional[Callable[[int, CampaignReport], None]] = None,
    collect: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
) -> List[CampaignReport]:
    """Run the t-MxM tile campaigns (tile kind x module, paper Fig. 7).

    The mini-app mirrors :func:`run_grid`'s execution semantics —
    seed-per-cell, optional intra-cell fault batching, process-pool
    fan-out, JSONL checkpoint/resume and streaming ``consume`` — so the
    expensive 6000-fault tile cells parallelise and resume exactly like
    the instruction grid.
    """
    spec = tmxm_spec(tile_kinds, modules, n_faults, seed,
                     use_shared_memory=use_shared_memory,
                     batch_size=batch_size, timeout=timeout, config=config,
                     vectorize=vectorize)
    results = spec.run(n_jobs=n_jobs, state=_shared_state(injector, config),
                       checkpoint=checkpoint, resume=resume,
                       progress=progress, metrics=metrics, consume=consume,
                       collect=collect, cancel=cancel)
    return spec.merge(results) if collect else []
