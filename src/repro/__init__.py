"""Two-level (RTL + software) GPU fault-injection framework.

Reproduction of *"Revealing GPUs Vulnerabilities by Combining
Register-Transfer and Software-Level Fault Injection"* (DSN 2021):

* :mod:`repro.gpu` — register-transfer-style GPU streaming-multiprocessor
  model (the FlexGripPlus substitute) with a fault plane over every
  flip-flop;
* :mod:`repro.rtl` — RTL fault-injection campaigns over micro-benchmarks
  and the t-MxM mini-app;
* :mod:`repro.syndrome` — the distilled fault-syndrome database
  (power-law relative errors, multi-thread counts, spatial patterns);
* :mod:`repro.swfi` — NVBitFI-style software injection of bit flips and
  RTL syndromes into real applications;
* :mod:`repro.apps` — six HPC codes plus LeNET- and YOLO-style CNNs;
* :mod:`repro.analysis` — AVF/PVF aggregation and renderers for every
  table and figure in the paper.

Quickstart::

    from repro.gpu import Opcode
    from repro.rtl import RTLInjector, make_microbenchmark, run_campaign

    report = run_campaign(make_microbenchmark(Opcode.FADD, "M"),
                          module="fp32", n_faults=500, seed=0)
    print(report.avf())

Diagnostics (per-unit campaign progress, pipeline stages, service
events) are :mod:`logging` events under the ``repro`` logger, silent
until the application configures logging, e.g.
``logging.basicConfig(level=logging.INFO)``.
"""

import logging

from . import analysis, apps, gpu, rtl, swfi, syndrome
from .datafiles import build_full_database, load_database
from .errors import (
    CampaignCancelled,
    CampaignError,
    FaultDecayedError,
    GpuHangError,
    GpuHardwareError,
    IllegalInstructionError,
    InvalidProgramCounterError,
    MemoryFaultError,
    RegisterFaultError,
    ReproError,
    ServiceError,
    SyndromeDatabaseError,
)

__version__ = "1.0.0"

# a library stays silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "analysis",
    "apps",
    "gpu",
    "rtl",
    "swfi",
    "syndrome",
    "build_full_database",
    "load_database",
    "CampaignCancelled",
    "CampaignError",
    "FaultDecayedError",
    "GpuHangError",
    "GpuHardwareError",
    "IllegalInstructionError",
    "InvalidProgramCounterError",
    "MemoryFaultError",
    "RegisterFaultError",
    "ReproError",
    "ServiceError",
    "SyndromeDatabaseError",
    "__version__",
]
