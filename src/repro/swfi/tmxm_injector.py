"""t-MxM tile corruption inside CNNs (paper Sec. IV-B / VI).

"The fault injector picks a random tile during the execution of a random
CNN layer and modifies its output elements according to the syndrome
(relative error and spatial distribution) defined with the RTL fault
injection."  The spatial pattern and per-element relative errors are drawn
from the t-MxM entries of the syndrome database (power law per pattern,
Sec. V-D / Fig. 9), and the corruption is applied through the CNN's
``tile_hook`` on the chosen layer's tiled-MxM output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..rng import make_rng
from ..syndrome.database import SyndromeDatabase
from ..syndrome.records import TmxmEntry
from ..syndrome.spatial import SpatialPattern, generate_pattern
from .models import _cast_float
from .ops import SassOps

__all__ = ["TmxmInjectionResult", "TmxmReport", "TmxmInjector"]

_TILE = 8


@dataclass(frozen=True)
class TmxmInjectionResult:
    """Outcome of one tile corruption run."""

    is_sdc: bool
    is_critical: bool
    pattern: SpatialPattern
    layer: int


@dataclass
class TmxmReport:
    """Aggregated t-MxM corruption campaign outcome."""

    app_name: str
    tile_kind: str
    module: str
    n_injections: int = 0
    n_sdc: int = 0
    n_critical: int = 0
    pattern_counts: dict = field(default_factory=dict)

    def add(self, result: TmxmInjectionResult) -> None:
        self.n_injections += 1
        self.pattern_counts[result.pattern.value] = (
            self.pattern_counts.get(result.pattern.value, 0) + 1)
        if result.is_sdc:
            self.n_sdc += 1
        if result.is_critical:
            self.n_critical += 1

    @property
    def pvf(self) -> float:
        if self.n_injections == 0:
            return 0.0
        return self.n_sdc / self.n_injections

    @property
    def critical_rate(self) -> float:
        """Critical SDCs (misclassification/misdetection) per injection."""
        if self.n_injections == 0:
            return 0.0
        return self.n_critical / self.n_injections


class TmxmInjector:
    """Runs t-MxM tile corruptions against a CNN application.

    *app* must expose ``run(ops, tile_hook)``, ``n_mxm_layers``,
    ``mxm_calls_per_layer`` and ``is_critical`` — both CNN wrappers do.
    """

    def __init__(self, app, database: SyndromeDatabase,
                 tile_kind: str = "Random",
                 module: str = "scheduler",
                 multi_only: bool = True) -> None:
        self.app = app
        self.precision: str = getattr(app, "precision", "fp32")
        self.tile_kind = tile_kind
        self.module = module
        #: single-element tile effects duplicate what instruction-output
        #: injection already measures, so the tile procedure defaults to
        #: the multi-element (Table II) pattern mix
        self.multi_only = multi_only
        self.entry: TmxmEntry = database.lookup_tmxm(tile_kind, module)
        self._golden: Optional[np.ndarray] = None

    def run_golden(self) -> np.ndarray:
        if self._golden is None:
            self._golden = SassOps(precision=self.precision).run(self.app)
        return self._golden

    def inject_one(self, rng: np.random.Generator) -> TmxmInjectionResult:
        golden = self.run_golden()
        layer = int(rng.integers(self.app.n_mxm_layers))
        call = int(rng.integers(self.app.mxm_calls_per_layer))
        pattern = self.entry.sample_pattern(rng, multi_only=self.multi_only)
        coords = generate_pattern(pattern, _TILE, rng)
        errors = [self.entry.sample_relative_error(pattern, rng)
                  for _ in coords]
        signs = rng.random(len(coords)) < 0.5
        state = {"calls": 0}

        def tile_hook(layer_id: int, matrix: np.ndarray) -> np.ndarray:
            if layer_id != layer:
                return matrix
            state["calls"] += 1
            if state["calls"] - 1 != call:
                return matrix
            corrupted = matrix.copy()
            tiles_i = max(matrix.shape[0] // _TILE, 1)
            tiles_j = max(matrix.shape[1] // _TILE, 1)
            ti = int(rng.integers(tiles_i)) * _TILE
            tj = int(rng.integers(tiles_j)) * _TILE
            for (i, j), rel, flip in zip(coords, errors, signs):
                row = min(ti + i, matrix.shape[0] - 1)
                col = min(tj + j, matrix.shape[1] - 1)
                value = float(corrupted[row, col])
                base = value if value != 0.0 else 1.0
                sign = -1.0 if flip else 1.0
                corrupted[row, col] = _cast_float(
                    value + sign * rel * abs(base), self.precision)
            return corrupted

        observed = SassOps(precision=self.precision).run(
            self.app, tile_hook=tile_hook)
        is_sdc = self.app.is_sdc(golden, observed)
        is_critical = is_sdc and self.app.is_critical(golden, observed)
        return TmxmInjectionResult(is_sdc, is_critical, pattern, layer)

    def run_campaign(self, n_injections: int, seed: int = 0) -> TmxmReport:
        rng = make_rng(seed)
        report = TmxmReport(self.app.name, self.tile_kind, self.module)
        for _ in range(n_injections):
            report.add(self.inject_one(rng))
        return report
