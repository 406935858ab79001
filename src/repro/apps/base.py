"""Application interface for the software fault-injection level.

Applications are written against the instrumented
:class:`~repro.swfi.ops.SassOps` layer; ``run`` must be deterministic for
a fixed construction seed so golden-vs-faulty comparison is exact, and
every iteration of a data-dependent loop must run at least one of the
twelve injectable ops (``SassOps.bra`` is the usual one).  An injected
run's watchdog counts only those ops, so a loop that obeys this ends,
when its corrupted bound never does, at the watchdog with
:class:`~repro.swfi.ops.AppHangError` (a DUE) instead of spinning
forever.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..swfi.ops import SassOps

__all__ = ["GPUApplication"]


class GPUApplication(ABC):
    """One benchmark program runnable under the software injector."""

    #: human-readable identity (Table III rows)
    name: str = "app"
    domain: str = ""
    size_label: str = ""
    #: float format of the operand streams ("fp32"/"fp16"/"bf16");
    #: injectors read this to match their arithmetic to the app's
    precision: str = "fp32"

    @abstractmethod
    def run(self, ops: SassOps) -> np.ndarray:
        """Execute the workload through *ops* and return its output."""

    def golden(self) -> np.ndarray:
        """Convenience fault-free execution."""
        return SassOps(precision=self.precision).run(self)

    def is_sdc(self, golden: np.ndarray, observed: np.ndarray) -> bool:
        """True when the outputs mismatch (the paper's SDC criterion).

        Exact comparison: the runs are deterministic, so any difference is
        fault-induced.  NaNs count as mismatches.
        """
        golden = np.asarray(golden)
        observed = np.asarray(observed)
        if golden.shape != observed.shape:
            return True
        if np.issubdtype(golden.dtype, np.floating):
            equal = (golden == observed) | (
                np.isnan(golden) & np.isnan(observed))
            return not bool(np.all(equal))
        return not bool(np.array_equal(golden, observed))
