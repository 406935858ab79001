"""RTL fault-injection controller.

Plays the role of the paper's ModelSim campaign controller: run the
workload fault-free to capture the golden outputs and the run length, then
re-run it once per fault-list entry with the transient armed on the fault
plane, classifying every outcome as Masked, SDC (single/multiple thread)
or DUE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import FaultDecayedError, GpuHardwareError
from ..gpu.fault_plane import FaultModel
from ..gpu.sm import (
    KernelResult,
    SMCheckpoint,
    SMConfig,
    StreamingMultiprocessor,
)
from .classify import Outcome, RunClassification, classify_run
from .microbench import Microbenchmark
from .reports import FaultDescriptor

__all__ = ["GoldenRun", "RTLInjector"]

#: Watchdog budget relative to the golden run length; a fault run that
#: exceeds this (or 2000 cycles, whichever is larger) is a hang (DUE).
#: It is the RTL level's only hang guard: it counts simulated cycles, so
#: it fires on any thread and whatever the host's speed.
_WATCHDOG_FACTOR = 10


@dataclass(frozen=True)
class GoldenRun:
    """Fault-free reference execution of one workload."""

    cycles: int
    regions: "tuple[tuple[int, ...], ...]"

    @property
    def total_words(self) -> int:
        return sum(len(r) for r in self.regions)


class RTLInjector:
    """Golden-vs-faulty executor over one streaming multiprocessor."""

    def __init__(self, sm: Optional[StreamingMultiprocessor] = None,
                 config: Optional[SMConfig] = None) -> None:
        self.sm = sm or StreamingMultiprocessor(config)

    @property
    def plane(self):
        return self.sm.plane

    # -- golden execution --------------------------------------------------------
    def run_golden(self, bench: Microbenchmark) -> GoldenRun:
        """Execute *bench* fault-free and snapshot its output regions."""
        result = self.sm.launch(
            bench.program,
            bench.n_threads,
            memory_image=bench.memory_image,
            initial_registers=bench.initial_registers,
        )
        return GoldenRun(result.cycles, self._snapshot(result, bench))

    # -- fault execution -----------------------------------------------------------
    def inject(self, bench: Microbenchmark, golden: GoldenRun,
               fault: FaultModel,
               start: Optional[SMCheckpoint] = None) -> RunClassification:
        """Run *bench* with one armed fault model and classify the outcome.

        ``start`` forks the run from a golden checkpoint of *bench* taken
        at or before the fault's activation cycle (see
        :meth:`StreamingMultiprocessor.launch`).  A run still going after
        ``max(10 x golden cycles, 2000)`` cycles ends in the SM's
        watchdog: a DUE whose reason reads ``GpuHangError: watchdog
        expired after <n> cycles``.
        """
        fault.reset()  # allow fault-list reuse across runs
        max_cycles = max(_WATCHDOG_FACTOR * golden.cycles, 2_000)
        try:
            result = self.sm.launch(
                bench.program,
                bench.n_threads,
                memory_image=bench.memory_image,
                initial_registers=bench.initial_registers,
                fault=fault,
                max_cycles=max_cycles,
                start=start,
            )
        except FaultDecayedError:
            return RunClassification(Outcome.MASKED, fault_fired=False)
        except GpuHardwareError as exc:
            return RunClassification(
                Outcome.DUE,
                due_reason=f"{type(exc).__name__}: {exc}",
                fault_fired=fault.fired,
            )
        faulty_regions = self._snapshot(result, bench)
        return classify_run(
            golden.regions,
            faulty_regions,
            [base for base, _ in bench.output_regions],
            fault_fired=fault.fired,
        )

    @staticmethod
    def describe(fault: FaultModel) -> FaultDescriptor:
        ff = fault.flipflop
        return FaultDescriptor(ff.module, ff.name, ff.lane, fault.bit,
                               getattr(fault, "cycle", 0), ff.kind)

    @staticmethod
    def _snapshot(result: KernelResult, bench: Microbenchmark
                  ) -> "tuple[tuple[int, ...], ...]":
        return tuple(
            tuple(result.memory.read_words(base, count))
            for base, count in bench.output_regions
        )
