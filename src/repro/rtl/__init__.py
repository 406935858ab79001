"""RTL fault-injection framework (the paper's ModelSim-side campaigns)."""

from .campaign import (
    MODULE_INSTRUCTIONS,
    TMXM_MODULES,
    default_signature_apps,
    modules_for_opcode,
    run_campaign,
    run_grid,
    run_signature_campaign,
    run_tmxm_grid,
)
from .classify import CorruptedValue, Outcome, RunClassification, classify_run
from .faultlist import (
    exhaustive_fault_list,
    exhaustive_stuck_at_list,
    generate_fault_list,
    generate_model_fault_list,
)
from .injector import GoldenRun, RTLInjector
from .microbench import (
    INPUT_RANGES,
    InputRange,
    Microbenchmark,
    all_microbenchmarks,
    make_microbenchmark,
)
from .signatures import SignatureRecord, SignatureReport
from .reports import (
    CampaignReport,
    DetailedRecord,
    FaultDescriptor,
    GeneralRecord,
)
from .tmxm import (
    TILE_DIM,
    TILE_KINDS,
    make_tile_pair,
    make_tmxm_bench,
    tmxm_reference,
)
from .vectorized import (
    REPLAY_MODULES,
    PreparedWorkload,
    VectorizedRTLInjector,
)

__all__ = [
    "MODULE_INSTRUCTIONS",
    "TMXM_MODULES",
    "modules_for_opcode",
    "default_signature_apps",
    "run_campaign",
    "run_grid",
    "run_signature_campaign",
    "run_tmxm_grid",
    "CorruptedValue",
    "Outcome",
    "RunClassification",
    "classify_run",
    "exhaustive_fault_list",
    "exhaustive_stuck_at_list",
    "generate_fault_list",
    "generate_model_fault_list",
    "SignatureRecord",
    "SignatureReport",
    "GoldenRun",
    "RTLInjector",
    "INPUT_RANGES",
    "InputRange",
    "Microbenchmark",
    "all_microbenchmarks",
    "make_microbenchmark",
    "CampaignReport",
    "DetailedRecord",
    "FaultDescriptor",
    "GeneralRecord",
    "TILE_DIM",
    "TILE_KINDS",
    "make_tile_pair",
    "make_tmxm_bench",
    "tmxm_reference",
    "REPLAY_MODULES",
    "PreparedWorkload",
    "VectorizedRTLInjector",
]
