"""Adaptive campaign control: stop cells early, respend their budget.

The paper sizes every campaign up front ("<3% margin with 12,000
faults", Sec. V-B) — each (opcode, range, module) cell gets the same
fault count no matter how quickly its SDC proportion converges.  The
:class:`AdaptiveController` replaces that with sequential sampling: it
watches per-cell Wilson intervals as unit results stream out of
:func:`repro.campaign.engine.run_units` (the ``observer=`` hook), stops
a cell once its interval is tight enough, and reallocates the freed
budget to the cells whose outcome variance still dominates the error
(Neyman-style stratified allocation).

Determinism is non-negotiable: an adaptive campaign must be a **prefix
of the fixed-size campaign's unit plan**.  The controller therefore
never invents units — every cell is registered with its full
seed-indexed fixed plan (from :func:`~repro.campaign.engine.plan_units`
/ the cell planners), and scheduling decisions only ever *extend the
executed prefix*.  Because unit ``i`` always draws child seed ``i`` of
the cell seed, the merged report of an early-stopped cell is
bit-identical to a fixed-size run truncated at the same unit horizon,
and a resumed controller (replaying the journal through the observer)
reaches exactly the same stop decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.stats import wilson_interval
from ..campaign.engine import WorkUnit
from ..errors import CampaignError

__all__ = [
    "STRATEGIES",
    "AdaptiveConfig",
    "AdaptiveController",
    "required_trials",
]

#: Budget-reallocation strategies under budget pressure: ``neyman``
#: weights unconverged cells by their outcome standard deviation
#: (stratified sampling's optimal allocation), ``uniform`` splits the
#: remaining budget evenly.
STRATEGIES = ("neyman", "uniform")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stop rules and allocation policy of one adaptive campaign.

    ``target_ci`` is the maximum **width** (high − low) of a cell's
    Wilson interval on its SDC proportion; a cell stops once its width
    is at or below the target *and* it has at least ``min_per_cell``
    trials (the warm-up that keeps a lucky first batch from stopping a
    cell at n=50).  ``budget`` caps total injections across all cells
    (``None``: the sum of the cells' fixed plans); ``strategy`` picks
    how a too-small remaining budget is split across hungry cells.
    """

    target_ci: float = 0.05
    confidence: float = 0.95
    min_per_cell: int = 100
    budget: Optional[int] = None
    strategy: str = "neyman"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ci < 1.0:
            raise CampaignError("target_ci must be in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise CampaignError("confidence must be in (0, 1)")
        if self.min_per_cell < 1:
            raise CampaignError("min_per_cell must be at least 1")
        if self.budget is not None and self.budget < 0:
            raise CampaignError("budget must be non-negative")
        if self.strategy not in STRATEGIES:
            raise CampaignError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {', '.join(STRATEGIES)}")


def _z_score(confidence: float) -> float:
    from scipy import stats as _sps

    return float(_sps.norm.ppf(0.5 + confidence / 2.0))


def _smoothed(successes: int, trials: int) -> float:
    """Laplace-smoothed proportion estimate.

    The +1/+2 prior keeps a cell that has seen zero SDCs so far from
    being assigned zero variance (and therefore zero budget) — rare-SDC
    cells are exactly the ones that need more samples to tighten.
    """
    return (successes + 1.0) / (trials + 2.0)


def required_trials(successes: int, trials: int,
                    config: AdaptiveConfig) -> int:
    """Estimated total trials needed to reach the target interval width.

    Inverts the normal-approximation interval width ``w = 2 z
    sqrt(p(1-p)/n)`` at the smoothed proportion estimate.  The estimate
    steers *allocation* only — convergence is always judged on the
    actual Wilson interval, so an optimistic estimate merely costs one
    more (small) round.
    """
    z = _z_score(config.confidence)
    p = _smoothed(successes, trials)
    half = config.target_ci / 2.0
    needed = math.ceil(z * z * p * (1.0 - p) / (half * half))
    return max(int(needed), config.min_per_cell)


def _take_units(sizes: Sequence[int], horizon: int,
                injections: int) -> int:
    """Extend a unit *horizon* to cover *injections* more injections.

    Returns the new horizon (index into *sizes*); at least one unit is
    taken when ``injections > 0`` and the plan has units left.
    """
    new = horizon
    covered = 0
    while new < len(sizes) and covered < injections:
        covered += sizes[new]
        new += 1
    return new


class _Cell:
    """One cell's fixed unit plan plus its running tallies."""

    def __init__(self, key: str, units: Sequence[WorkUnit]) -> None:
        self.key = key
        self.units: List[WorkUnit] = list(units)
        self.sizes = [unit.size for unit in self.units]
        self.planned = 0    # units handed to the engine so far
        self.observed = 0   # units whose reports have come back
        self.trials = 0
        self.successes = 0

    @property
    def planned_injections(self) -> int:
        return sum(self.sizes[:self.planned])

    @property
    def exhausted(self) -> bool:
        return self.planned >= len(self.units)


class AdaptiveController:
    """Level-agnostic sequential-sampling controller.

    Usage: register every cell with its **full fixed-size unit plan**
    (:meth:`add_cell`), then alternate :meth:`next_round` (units to
    execute; empty means stop) with an engine run whose ``observer=``
    is :meth:`observe`.  Cells may come from either injection level —
    the controller only needs each unit report to expose
    ``n_injections``/``n_sdc`` (both :class:`~repro.swfi.campaign.
    PVFReport` and :class:`~repro.rtl.reports.CampaignReport` do), or a
    custom ``outcomes`` extractor returning ``(trials, successes)``.

    Decisions are pure functions of the observed tallies at round
    boundaries, so replaying a journal through :meth:`observe`
    reconstructs the exact round/stop sequence of the interrupted run.
    """

    def __init__(self, config: Optional[AdaptiveConfig] = None,
                 outcomes: Optional[
                     Callable[[Any], Tuple[int, int]]] = None) -> None:
        self.config = config or AdaptiveConfig()
        self._outcomes = outcomes or (
            lambda report: (report.n_injections, report.n_sdc))
        self._cells: Dict[str, _Cell] = {}
        self._by_index: Dict[int, _Cell] = {}
        self._seen: set = set()
        self.rounds = 0

    # -- plan registration ---------------------------------------------------
    def add_cell(self, key: str, units: Sequence[WorkUnit]) -> None:
        """Register one cell's fixed seed-indexed unit plan."""
        if key in self._cells:
            raise CampaignError(f"duplicate adaptive cell {key!r}")
        cell = _Cell(key, units)
        for unit in cell.units:
            if unit.index in self._by_index:
                raise CampaignError(
                    f"unit index {unit.index} belongs to two cells")
            self._by_index[unit.index] = cell
        self._cells[key] = cell

    # -- observation (engine observer hook) ----------------------------------
    def observe(self, unit: WorkUnit, report: Any) -> None:
        """Fold one in-order unit result into its cell's tallies."""
        if unit.index in self._seen:
            raise CampaignError(
                f"unit {unit.index} observed twice — overlapping rounds?")
        self._seen.add(unit.index)
        cell = self._by_index[unit.index]
        trials, successes = self._outcomes(report)
        cell.trials += int(trials)
        cell.successes += int(successes)
        cell.observed += 1
        # a replayed journal observes units the controller has not
        # planned this incarnation: fast-forward the planning cursor
        if cell.observed > cell.planned:
            cell.planned = cell.observed

    def replay(self, completed: Dict[int, Any]) -> bool:
        """Re-derive the rounds from journaled unit reports.

        Plans round after round, observing each round's units from
        *completed*, until the controller stops (returns True) or a
        planned unit has no report yet (returns False: that round is
        still in flight, and :attr:`planned_units` is the standing
        decision).  The service daemon uses this to reach the stop
        rule of an in-process run from a sharded job's journal.
        """
        while True:
            units = self.next_round()
            if not units:
                return True
            if any(unit.index not in completed for unit in units):
                return False
            for unit in units:
                self.observe(unit, completed[unit.index])

    # -- per-cell statistics -------------------------------------------------
    def interval(self, key: str) -> Tuple[float, float]:
        cell = self._cells[key]
        return wilson_interval(cell.successes, cell.trials,
                               self.config.confidence)

    def converged(self, key: str) -> bool:
        cell = self._cells[key]
        if cell.trials < self.config.min_per_cell:
            return False
        low, high = self.interval(key)
        return high - low <= self.config.target_ci

    @property
    def planned_injections(self) -> int:
        return sum(cell.planned_injections
                   for cell in self._cells.values())

    @property
    def planned_units(self) -> List[WorkUnit]:
        """Every unit handed out so far, in index order."""
        return sorted((unit for cell in self._cells.values()
                       for unit in cell.units[:cell.planned]),
                      key=lambda unit: unit.index)

    @property
    def budget(self) -> int:
        if self.config.budget is not None:
            return self.config.budget
        return sum(sum(cell.sizes) for cell in self._cells.values())

    # -- scheduling ----------------------------------------------------------
    def _active(self) -> List[_Cell]:
        return [cell for cell in self._cells.values()
                if not cell.exhausted and not self.converged(cell.key)]

    def next_round(self) -> List[WorkUnit]:
        """Plan the next engine round; empty means the campaign is done.

        Warm-up rounds extend every untouched cell to its
        ``min_per_cell`` prefix.  Steady-state rounds give each
        unconverged cell its estimated deficit; when the remaining
        budget cannot cover the total deficit it is split by the
        configured strategy (Neyman variance weights or uniformly) —
        always in whole plan units, so the executed set stays a prefix
        of each cell's fixed plan.
        """
        remaining = self.budget - self.planned_injections
        if remaining <= 0:
            return []
        units: List[WorkUnit] = []

        fresh = [cell for cell in self._cells.values() if cell.planned == 0]
        if fresh:
            for cell in fresh:
                if remaining <= 0:
                    break
                target = min(self.config.min_per_cell, remaining)
                new = _take_units(cell.sizes, cell.planned, target)
                units.extend(cell.units[cell.planned:new])
                remaining -= sum(cell.sizes[cell.planned:new])
                cell.planned = new
            self.rounds += 1
            return sorted(units, key=lambda u: u.index)

        active = self._active()
        if not active:
            return []
        deficits = {
            cell.key: max(required_trials(cell.successes, cell.trials,
                                          self.config) - cell.trials, 1)
            for cell in active
        }
        total = sum(deficits.values())
        if total > remaining:
            if self.config.strategy == "neyman":
                weights = {
                    cell.key: math.sqrt(
                        _smoothed(cell.successes, cell.trials)
                        * (1.0 - _smoothed(cell.successes, cell.trials)))
                    for cell in active
                }
            else:  # uniform
                weights = {cell.key: 1.0 for cell in active}
            weight_sum = sum(weights.values())
            deficits = {
                key: min(deficits[key],
                         int(remaining * weights[key] / weight_sum))
                for key in deficits
            }
        for cell in active:
            allocation = min(deficits[cell.key], remaining)
            if allocation <= 0:
                continue
            new = _take_units(cell.sizes, cell.planned, allocation)
            units.extend(cell.units[cell.planned:new])
            remaining -= sum(cell.sizes[cell.planned:new])
            cell.planned = new
        if not units:
            return []
        self.rounds += 1
        return sorted(units, key=lambda u: u.index)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> List[dict]:
        """Per-cell decision record (serialisable, insertion-ordered)."""
        out = []
        for cell in self._cells.values():
            low, high = wilson_interval(cell.successes, cell.trials,
                                        self.config.confidence)
            out.append({
                "cell": cell.key,
                "trials": cell.trials,
                "sdc": cell.successes,
                "ci_low": low,
                "ci_high": high,
                "ci_width": high - low,
                "units": cell.planned,
                "plan_units": len(cell.units),
                "converged": self.converged(cell.key),
                "exhausted": cell.exhausted,
            })
        return out
