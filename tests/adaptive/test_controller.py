"""The sequential-sampling controller's pure decision core.

Everything here runs on synthetic unit plans and hand-fed unit reports
— no fault injection.  The invariants under test are the ones the
adaptive runners and the service's moving-horizon shard planner both
rely on, since both drive the controller through
:meth:`AdaptiveController.replay`: decisions are pure functions of the
planned units' reports, and horizons only ever extend a prefix of the
fixed plan.
"""

import types

import pytest

from repro.adaptive import (
    STRATEGIES,
    AdaptiveConfig,
    AdaptiveController,
    required_trials,
)
from repro.analysis.stats import wilson_interval
from repro.campaign.engine import WorkUnit
from repro.errors import CampaignError


def _units(sizes, base=0):
    return [WorkUnit(index=base + i, size=size, seed=1000 + base + i)
            for i, size in enumerate(sizes)]


def _report(trials, sdc):
    return types.SimpleNamespace(n_injections=trials, n_sdc=sdc)


class TestConfig:
    def test_defaults_are_valid(self):
        config = AdaptiveConfig()
        assert config.target_ci == 0.05
        assert config.strategy in STRATEGIES

    @pytest.mark.parametrize("kwargs", [
        {"target_ci": 0.0},
        {"target_ci": 1.0},
        {"target_ci": -0.1},
        {"confidence": 0.0},
        {"confidence": 1.0},
        {"min_per_cell": 0},
        {"budget": -1},
        {"strategy": "greedy"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(CampaignError):
            AdaptiveConfig(**kwargs)


class TestRequiredTrials:
    def test_floor_is_min_per_cell(self):
        config = AdaptiveConfig(target_ci=0.5, min_per_cell=100)
        # a loose target needs few trials; the warm-up floor wins
        assert required_trials(0, 400, config) == 100

    def test_half_proportion_needs_most_trials(self):
        config = AdaptiveConfig(target_ci=0.05)
        worst = required_trials(50, 100, config)   # smoothed p = 0.5
        rare = required_trials(0, 100, config)     # smoothed p ~ 0.01
        assert rare < worst
        # w = 2 z sqrt(p(1-p)/n) at p=0.5, z=1.96 inverts to ~1537
        assert 1500 < worst < 1600


class TestHorizons:
    """One cell's horizon decisions, reached through the controller.

    The service daemon replays a job's journal through
    :meth:`AdaptiveController.replay`; these cases pin the stop rule it
    reaches from hand-fed tallies.
    """

    config = AdaptiveConfig(target_ci=0.05, min_per_cell=100)
    sizes = [50] * 40

    def _controller(self, sizes=None, config=None):
        controller = AdaptiveController(config or self.config)
        controller.add_cell(
            "cell", _units(self.sizes if sizes is None else sizes))
        return controller

    def _horizon(self, controller):
        return len(controller.planned_units)

    def test_initial_horizon_covers_warm_up(self):
        for sizes, horizon in ((None, 2), ([30] * 10, 4)):  # 4 x 30 = 120
            controller = self._controller(sizes)
            assert controller.replay({}) is False
            assert self._horizon(controller) == horizon
        empty = self._controller([])
        assert empty.replay({}) is True
        assert self._horizon(empty) == 0

    def test_no_tallies_yields_warm_up(self):
        controller = self._controller()
        assert controller.replay({}) is False  # warm-up still in flight
        assert self._horizon(controller) == 2

    def test_lagging_tallies_freeze_the_horizon(self):
        # 2 units (100 injections) planned but only 50 journaled: units
        # are still in flight, so no decision is taken
        controller = self._controller()
        assert controller.replay({0: _report(50, 10)}) is False
        assert self._horizon(controller) == 2 and controller.rounds == 1

    def test_exhausted_plan_stops(self):
        # 2000 planned trials cannot narrow p = 0.5 to a 0.01 width
        controller = self._controller(
            config=AdaptiveConfig(target_ci=0.01, min_per_cell=100))
        completed = {i: _report(50, 25) for i in range(len(self.sizes))}
        assert controller.replay(completed) is True
        assert self._horizon(controller) == 40
        assert controller.replay(completed) is True  # stays stopped
        assert self._horizon(controller) == 40

    def test_converged_cell_stops(self):
        # a 1000-trial warm-up: 20 units, 1000 trials, 500 SDCs
        config = AdaptiveConfig(target_ci=0.1, min_per_cell=1000)
        low, high = wilson_interval(500, 1000, config.confidence)
        assert high - low <= config.target_ci  # premise of the test
        controller = self._controller(config=config)
        completed = {i: _report(50, 25) for i in range(len(self.sizes))}
        assert controller.replay(completed) is True
        assert controller.converged("cell")
        assert self._horizon(controller) == 20

    def test_unconverged_cell_extends_by_its_deficit(self):
        # p = 0.5 at n = 100 needs ~1537 trials: deficit 1437, i.e.
        # 29 more units of 50 on top of the current 2
        controller = self._controller()
        assert controller.replay({0: _report(50, 25),
                                  1: _report(50, 25)}) is False
        assert self._horizon(controller) == 31

    def test_stepwise_replay_equals_one_shot(self):
        # the in-process loop replays growing result sets into one
        # controller; the service replays a whole journal into a fresh one
        reports = {i: _report(50, 10 + i % 7) for i in range(len(self.sizes))}
        stepwise = self._controller()
        completed = {}
        while not stepwise.replay(completed):
            for unit in stepwise.planned_units:
                completed[unit.index] = reports[unit.index]
        one_shot = self._controller()
        assert one_shot.replay(reports) is True
        assert one_shot.planned_units == stepwise.planned_units
        assert one_shot.rounds == stepwise.rounds
        assert one_shot.summary() == stepwise.summary()

    def test_horizon_sequence_is_monotonic(self):
        controller = self._controller()
        completed, seen = {}, []
        while not controller.replay(completed):
            for unit in controller.planned_units:
                completed.setdefault(
                    unit.index, _report(unit.size, unit.size // 2))
            seen.append(self._horizon(controller))
        assert seen == sorted(seen)
        assert seen[-1] <= len(self.sizes)


class TestController:
    def test_duplicate_cell_rejected(self):
        controller = AdaptiveController()
        controller.add_cell("a", _units([10] * 3))
        with pytest.raises(CampaignError):
            controller.add_cell("a", _units([10] * 3, base=3))

    def test_overlapping_unit_index_rejected(self):
        controller = AdaptiveController()
        controller.add_cell("a", _units([10] * 3))
        with pytest.raises(CampaignError):
            controller.add_cell("b", _units([10] * 3))  # same indices

    def test_warm_up_round_covers_min_per_cell(self):
        config = AdaptiveConfig(target_ci=0.05, min_per_cell=30)
        controller = AdaptiveController(config)
        controller.add_cell("a", _units([10] * 20))
        controller.add_cell("b", _units([10] * 20, base=20))
        assert controller.replay({}) is False
        assert [u.index for u in controller.planned_units] == [
            0, 1, 2, 20, 21, 22]
        assert controller.rounds == 1
        assert controller.planned_injections == 60

    def test_converged_campaign_returns_empty_round(self):
        config = AdaptiveConfig(target_ci=0.9, min_per_cell=10)
        controller = AdaptiveController(config)
        controller.add_cell("a", _units([10] * 5))
        assert controller.replay({}) is False
        assert [u.index for u in controller.planned_units] == [0]
        assert controller.replay({0: _report(10, 5)}) is True
        assert controller.converged("a")
        assert controller.rounds == 1

    def test_an_empty_cell_leaves_the_others_running(self):
        # a cell without units is exhausted from the start; it must not
        # hold the campaign in its warm-up, whose empty round would stop
        # every other cell
        config = AdaptiveConfig(target_ci=0.05, min_per_cell=20)
        reports = {i: _report(10, 5) for i in range(50)}

        def summary(*cells):
            controller = AdaptiveController(config)
            for key, units in cells:
                controller.add_cell(key, units)
            assert controller.replay(reports) is True
            return {row["cell"]: row for row in controller.summary()}

        b = ("b", _units([10] * 50))
        with_empty = summary(("empty", []), b)
        assert with_empty["b"] == summary(b)["b"]
        assert with_empty["b"]["units"] == 50
        assert with_empty["empty"]["exhausted"] is True

    def test_budget_caps_the_warm_up(self):
        config = AdaptiveConfig(target_ci=0.05, min_per_cell=30,
                                budget=25)
        controller = AdaptiveController(config)
        controller.add_cell("a", _units([10] * 20))
        assert controller.replay({}) is False
        first = controller.planned_units
        assert sum(u.size for u in first) == 30  # whole units only
        completed = {unit.index: _report(10, 5) for unit in first}
        assert controller.replay(completed) is True  # budget spent
        assert controller.planned_units == first

    def _pressured(self, strategy):
        # two unconverged cells fighting over a too-small budget: "a"
        # sits at p=0.5 (max variance), "b" has seen zero SDCs
        config = AdaptiveConfig(target_ci=0.05, min_per_cell=40,
                                budget=180, strategy=strategy)
        controller = AdaptiveController(config)
        a = _units([10] * 100)
        b = _units([10] * 100, base=100)
        controller.add_cell("a", a)
        controller.add_cell("b", b)
        assert controller.replay({}) is False
        warm_up = {unit.index: _report(10, 5 if unit.index < 100 else 0)
                   for unit in controller.planned_units}
        assert controller.replay(warm_up) is False
        taken = {"a": 0, "b": 0}
        for unit in controller.planned_units:
            if unit.index not in warm_up:
                taken["a" if unit.index < 100 else "b"] += 1
        return taken

    def test_neyman_weights_high_variance_cells(self):
        taken = self._pressured("neyman")
        assert taken["a"] > taken["b"] > 0

    def test_uniform_splits_the_remainder_evenly(self):
        taken = self._pressured("uniform")
        assert taken["a"] == taken["b"] > 0

    def test_summary_shape(self):
        config = AdaptiveConfig(target_ci=0.9, min_per_cell=10)
        controller = AdaptiveController(config)
        controller.add_cell("a", _units([10] * 5))
        assert controller.replay({}) is False
        assert controller.replay({0: _report(10, 3)}) is True
        (entry,) = controller.summary()
        assert entry["cell"] == "a"
        assert entry["trials"] == 10 and entry["sdc"] == 3
        assert entry["units"] == 1 and entry["plan_units"] == 5
        assert entry["converged"] is True
        assert entry["exhausted"] is False
        assert entry["ci_width"] == pytest.approx(
            entry["ci_high"] - entry["ci_low"])
