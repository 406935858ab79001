"""Prebuilt syndrome database management.

The paper publishes its RTL fault-model database in a public repository
so third parties can inject realistic syndromes without redoing the
months-long RTL campaigns.  This module plays that role: it builds the
full campaign grid once (every characterised opcode x S/M/L x module,
plus the t-MxM tile campaigns), caches the distilled syndrome database as
JSON inside the package, and loads it on demand.

``python -m repro build-db`` rebuilds the shipped database.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .campaign.pipeline import run_rtl_stage
from .syndrome.database import SyndromeDatabase

__all__ = [
    "default_database_path",
    "build_full_database",
    "load_database",
]

#: Campaign sizes for the shipped database.  The paper injects >12,000
#: faults per cell; these defaults keep the one-time build to minutes
#: while providing enough SDCs per cell for stable power-law fits.
DEFAULT_GRID_FAULTS = 1500
DEFAULT_TMXM_FAULTS = 6000
DEFAULT_SEED = 2021


def default_database_path() -> Path:
    """Location of the shipped syndrome database JSON."""
    return Path(__file__).parent / "data" / "syndrome_db.json"


def build_full_database(grid_faults: int = DEFAULT_GRID_FAULTS,
                        tmxm_faults: int = DEFAULT_TMXM_FAULTS,
                        seed: int = DEFAULT_SEED,
                        n_jobs: int = 1,
                        batch_size: Optional[int] = None
                        ) -> SyndromeDatabase:
    """Run the full RTL campaign grid and distil the syndrome database.

    This is the pipeline's RTL stage
    (:func:`~repro.campaign.pipeline.run_rtl_stage`) with no journal:
    cell reports stream straight into a
    :class:`~repro.syndrome.builder.StreamingDatabaseBuilder` as they
    complete (in deterministic cell order), so the full grid never sits
    in memory at once.  ``n_jobs``/``batch_size`` parallelise the
    campaigns without changing the resulting database: the t-MxM cells
    keep their historical seeds (children of ``seed + 1``).
    """
    database, _ = run_rtl_stage(None, seed=seed, grid_faults=grid_faults,
                                tmxm_faults=tmxm_faults, n_jobs=n_jobs,
                                batch_size=batch_size)
    return database


def load_database(path: Optional[Path] = None,
                  allow_build: bool = True) -> SyndromeDatabase:
    """Load the shipped database, building and caching it if missing."""
    path = Path(path) if path is not None else default_database_path()
    if path.exists():
        return SyndromeDatabase.load(path)
    if not allow_build:
        raise FileNotFoundError(
            f"syndrome database not found at {path}; run "
            "`python -m repro build-db` to build it")
    database = build_full_database()
    path.parent.mkdir(parents=True, exist_ok=True)
    database.save(path)
    return database

