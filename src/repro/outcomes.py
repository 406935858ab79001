"""The fault-outcome taxonomy shared by every layer of the framework.

The paper classifies every injected fault — RTL flip-flop transients and
software-level instruction-output corruptions alike — into the same
three buckets (Sec. II-A): **Masked** (outputs bit-identical to the
golden run), **SDC** (silent data corruption: any output word differs)
and **DUE** (detected unrecoverable error: hang, illegal PC/opcode,
out-of-range access).  The enum lives here, above both injection levels,
so reports, telemetry and the artifact schemas all derive from one
definition; :mod:`repro.rtl.classify` re-exports it for compatibility.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Tuple

__all__ = ["Outcome", "outcome_attrs", "tally_outcomes"]


class Outcome(enum.Enum):
    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def outcome_attrs() -> Tuple[Tuple[str, str], ...]:
    """``(outcome key, report attribute)`` pairs, in taxonomy order.

    Every unit report type — ``CampaignReport``, ``SignatureReport``
    and ``PVFReport`` — exposes one ``n_<outcome>`` tally per outcome
    (``PVFReport.n_sdc``, ``CampaignReport.n_masked``, ...); telemetry
    sniffs them off any report through this single derived table instead
    of maintaining its own copy of the taxonomy.
    """
    return tuple((o.value, f"n_{o.value}") for o in Outcome)


def tally_outcomes(outcomes: Iterable["Outcome"]) -> Dict[str, int]:
    """Count outcomes into a complete ``{value: count}`` table.

    Every taxonomy bucket is present (zero if unseen), in taxonomy
    order, so tallies from different sources always align key-for-key.
    """
    tally = {o.value: 0 for o in Outcome}
    for outcome in outcomes:
        tally[outcome.value] += 1
    return tally
