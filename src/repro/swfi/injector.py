"""NVBitFI-style software fault injector.

Executes an application three ways: plain (golden), profiled (dynamic
SASS histogram) and injected — one randomly selected dynamic instruction's
output corrupted by a fault model, then run to completion and classified
as Masked / SDC / DUE, exactly the flow of the adapted NVBitFI in
Sec. IV-B.

The golden pass runs through an un-targeted :class:`SassOps`, which counts
every dynamic instruction as a side effect, so one execution yields both
the reference output and the Figure 3 profile.  Every run goes through
:meth:`SassOps.run`, which holds the run's IEEE policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..campaign.engine import wall_clock_limit
from ..errors import ReproError
from ..gpu.isa import Opcode
from ..rtl.classify import Outcome
from .models import FaultModel
from .ops import SassOps

__all__ = ["AppHangError", "InjectionResult", "SoftwareInjector"]


class AppHangError(ReproError):
    """An application exceeded its iteration or wall-clock guard (a DUE)."""


def _hang_after(seconds: float) -> AppHangError:
    return AppHangError(
        f"wall-clock guard: injected run exceeded {seconds:g}s")


def _wall_clock_limit(seconds: Optional[float]):
    """SIGALRM guard around an injected run (shared engine implementation),
    raising :class:`AppHangError` so the run classifies as a DUE."""
    return wall_clock_limit(seconds, make_exception=_hang_after)


@dataclass(frozen=True)
class InjectionResult:
    """Outcome of a single software injection."""

    outcome: Outcome
    opcode: Optional[Opcode]
    target: int
    detail: str = ""
    #: every opcode the injection span corrupted, in execution order
    #: (more than one iff a multi-thread span crossed an op boundary)
    corrupted_opcodes: Tuple[Opcode, ...] = field(default=())


class SoftwareInjector:
    """Profile-then-inject controller for one application instance."""

    def __init__(self, app) -> None:
        self.app = app
        #: float format of the app's operand streams; apps without an
        #: explicit ``precision`` attribute are the fp32 baseline
        self.precision: str = getattr(app, "precision", "fp32")
        self._golden = None
        self._profile_counts: Optional[Dict[Opcode, int]] = None
        self._injectable_total: Optional[int] = None

    # -- reference passes ----------------------------------------------------
    def run_golden(self):
        """Fault-free output, cached; captures the profile as it runs."""
        if self._golden is None:
            ops = SassOps(precision=self.precision)
            self._golden = ops.run(self.app)
            self._profile_counts = ops.profile()
            self._injectable_total = ops.injectable_total
        return self._golden

    def run_profile(self) -> Dict[Opcode, int]:
        """Dynamic SASS instruction histogram (Figure 3).

        The histogram falls out of the golden pass — the un-targeted
        :class:`SassOps` counts every instruction it executes — so the app
        is run at most once for both reference artefacts.
        """
        if self._profile_counts is None:
            self.run_golden()
        return self._profile_counts

    @property
    def injectable_total(self) -> int:
        if self._injectable_total is None:
            self.run_golden()
        return self._injectable_total

    # -- injection ----------------------------------------------------------------
    def inject_one(self, model: FaultModel,
                   rng: np.random.Generator,
                   timeout: Optional[float] = None) -> InjectionResult:
        """Corrupt one random dynamic instruction and classify the run.

        ``timeout`` bounds the injected run's wall-clock seconds; a run
        that exceeds it is classified as a DUE (the hang the paper's
        watchdog would reset) instead of stalling the campaign.
        """
        golden = self.run_golden()
        total = self.injectable_total
        if total == 0:
            raise ReproError(
                f"{self.app.name} executes no injectable instructions")
        target = int(rng.integers(total))
        span = model.sample_span(rng)
        ops = SassOps(target=target,
                      corruptor=model(rng, precision=self.precision),
                      span=span, precision=self.precision)
        try:
            with _wall_clock_limit(timeout):
                observed = ops.run(self.app)
        except (AppHangError, FloatingPointError, ZeroDivisionError,
                IndexError, ValueError, OverflowError) as exc:
            return InjectionResult(
                Outcome.DUE, ops.injected, target,
                detail=f"{type(exc).__name__}: {exc}",
                corrupted_opcodes=tuple(ops.corrupted_opcodes))
        corrupted = tuple(ops.corrupted_opcodes)
        if self.app.is_sdc(golden, observed):
            return InjectionResult(Outcome.SDC, ops.injected, target,
                                   corrupted_opcodes=corrupted)
        return InjectionResult(Outcome.MASKED, ops.injected, target,
                               corrupted_opcodes=corrupted)
