"""The per-run IEEE policy: corrupted values never warn or trap.

Every runner executes an application through :meth:`SassOps.run`, which
holds one ``np.errstate(all="ignore")`` scope for the whole run.  With
warnings turned into errors, overflow, NaN and division by zero must not
escape any runner, whether they come from a corruptor returning +-inf,
NaN or the largest finite float, or from the app's own arithmetic.  The
outcomes are pinned to what the op layer produced when every float op
set its own policy.
"""

import math

import numpy as np
import pytest

from repro.apps.base import GPUApplication
from repro.datafiles import load_database
from repro.rng import make_rng
from repro.swfi import SoftwareInjector, profile_application
from repro.swfi.models import FaultModel
from repro.swfi.ops import SassOps
from repro.swfi.tmxm_injector import TmxmInjector

pytestmark = pytest.mark.filterwarnings("error")

F32_MAX = float(np.finfo(np.float32).max)
VALUES = {"+inf": math.inf, "-inf": -math.inf, "nan": math.nan,
          "max": F32_MAX}

#: outcome initial per dynamic index (M/S/D), per corrupted value
EXPECTED_OUTCOMES = {
    "+inf": "SSSSMSSSMSSMMMSMSSSSMMSSMMSSMMSMSSSSMMSSSSSSMMMM",
    "-inf": "SSSSSMSSSMMSSSMSSSSSSSSSSSSSSSMSSSSSSSSSSSSSSSSS",
    "nan": "SSSSSSSSSSSSSSSSMMSSSSSSSSSSSSSSMMSSSSSSSSSSSSSS",
    "max": "MSSSSSSSSSSMSSSSSSSSMMSSSSSSSSSSSSSSSSSSSSSSSSSS",
}
#: critical/SDC/masked initial of each seeded t-MxM tile corruption
EXPECTED_TMXM = "MMMMMMCMCMMM"


class Overflowing(GPUApplication):
    """Float ops that overflow, divide by zero and make NaN on their own.

    It also has the CNN interface the t-MxM injector drives: one layer
    whose single tile goes through ``tile_hook``.
    """

    name = "overflowing"
    n_mxm_layers = 1
    mxm_calls_per_layer = 1

    def run(self, ops, tile_hook=None):
        x = ops.gld(np.array([F32_MAX, -F32_MAX, 1.0, 0.0],
                             dtype=np.float32))
        doubled = ops.fmul(x, np.float32(2.0))  # overflow to +-inf
        cancelled = ops.fadd(doubled, doubled[::-1])  # inf - inf: NaN
        fused = ops.ffma(ops.rcp(x), cancelled, x)  # 1/0: divide
        waves = ops.fsin(doubled)  # sin(inf): invalid
        grown = ops.fexp(ops.fmul(x, x))  # exp overflow
        whole = ops.i2f(ops.f2i(doubled))  # inf to int32 cast
        tile = np.full((8, 8), F32_MAX, dtype=np.float32)
        if tile_hook is not None:
            tile = tile_hook(0, tile)
        glue = tile[0, :4] * np.float32(4.0)  # plain numpy in the run
        return ops.gst(np.concatenate([fused, waves, grown, whole, glue]))

    def is_critical(self, golden, observed):
        return self.is_sdc(golden, observed)


class Constant(FaultModel):
    """Replaces the targeted float output by one fixed value."""

    name = "constant"

    def __init__(self, value: float) -> None:
        self.value = value

    def corrupt(self, opcode, golden, operands, is_float, rng,
                precision="fp32"):
        return self.value if is_float else golden


class FixedTarget:
    """Stands in for a campaign generator that draws dynamic index *t*."""

    def __init__(self, target: int) -> None:
        self.target = target

    def integers(self, high: int) -> int:
        return self.target


def _same(golden, observed) -> bool:
    return not Overflowing().is_sdc(golden, observed)


def sweep_outcomes(value: float) -> str:
    """Outcome initial of an injection at every dynamic index."""
    injector = SoftwareInjector(Overflowing())
    model = Constant(value)
    return "".join(
        injector.inject_one(model, FixedTarget(t)).outcome.value[0].upper()
        for t in range(injector.injectable_total))


def tmxm_outcomes() -> str:
    """SDC/critical flags of a few seeded tile corruptions."""
    injector = TmxmInjector(Overflowing(), load_database(),
                            tile_kind="Random", module="scheduler")
    rng = make_rng(5)
    results = [injector.inject_one(rng) for _ in range(12)]
    return "".join("C" if r.is_critical else "S" if r.is_sdc else "M"
                   for r in results)


class TestEveryRunnerHoldsThePolicy:
    def test_golden_and_profile(self):
        app = Overflowing()
        golden = app.golden()
        assert np.isnan(golden).any() and np.isinf(golden).any()
        injector = SoftwareInjector(app)
        assert _same(injector.run_golden(), golden)
        profile = profile_application(app)
        assert profile.counts == injector.run_profile()
        assert _same(SassOps().run(app), golden)

    @pytest.mark.parametrize("label", sorted(VALUES))
    def test_injections_classify_as_before(self, label):
        assert sweep_outcomes(VALUES[label]) == EXPECTED_OUTCOMES[label]

    def test_tmxm_injector(self):
        injector = TmxmInjector(Overflowing(), load_database(),
                                tile_kind="Random", module="scheduler")
        assert _same(injector.run_golden(), Overflowing().golden())
        assert tmxm_outcomes() == EXPECTED_TMXM


def test_direct_run_gets_numpy_default_warnings():
    """The policy lives in ``SassOps.run``; the ops set none themselves."""
    with pytest.warns(RuntimeWarning):
        Overflowing().run(SassOps())


if __name__ == "__main__":  # print the outcome strings to pin
    for label, value in VALUES.items():
        print(f"{label!r}: {sweep_outcomes(value)!r},")
    print(f"tmxm: {tmxm_outcomes()!r}")
