"""Registry of P-SLOCAL membership / hardness / completeness facts.

The paper situates its result in a landscape of known facts about the
class P-SLOCAL.  This registry records those facts (with their sources) in
a machine-readable form that the CLI and the examples print
(:func:`summary_table`), and so the library has one authoritative
statement of *which* result is reproduced here (``maxis-approx``
completeness, Theorem 1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List


class CompletenessStatus(Enum):
    """Where a problem sits relative to the class P-SLOCAL."""

    MEMBER = "member"                  # known to be in P-SLOCAL
    HARD = "hard"                      # P-SLOCAL-hard
    COMPLETE = "complete"              # both member and hard
    OPEN = "open"                      # completeness is an open question


@dataclass(frozen=True)
class CompletenessFact:
    """One recorded fact about a problem.

    Attributes
    ----------
    problem:
        Problem identifier (matches :mod:`repro.reductions.problems` names
        where applicable).
    status:
        Its :class:`CompletenessStatus`.
    source:
        Citation key of the paper establishing the fact.
    note:
        Free-text qualifier (e.g. the hypergraph family a hardness result
        is stated for).
    """

    problem: str
    status: CompletenessStatus
    source: str
    note: str = ""


_FACTS: List[CompletenessFact] = [
    CompletenessFact(
        problem="mis",
        status=CompletenessStatus.MEMBER,
        source="GKM17",
        note="SLOCAL locality 1; completeness is open (stated explicitly in the paper).",
    ),
    CompletenessFact(
        problem="delta-plus-one-coloring",
        status=CompletenessStatus.MEMBER,
        source="GKM17",
        note="SLOCAL locality 1; completeness is open.",
    ),
    CompletenessFact(
        problem="network-decomposition",
        status=CompletenessStatus.COMPLETE,
        source="GKM17",
        note="(poly log n, poly log n)-network decomposition.",
    ),
    CompletenessFact(
        problem="conflict-free-multicoloring",
        status=CompletenessStatus.COMPLETE,
        source="GKM17",
        note="poly log n colors, almost-uniform hypergraphs with poly n hyperedges (Theorem 1.2).",
    ),
    CompletenessFact(
        problem="dominating-set-approx",
        status=CompletenessStatus.COMPLETE,
        source="GHK18",
        note="O(log Δ)-approximation of minimum dominating set.",
    ),
    CompletenessFact(
        problem="set-cover-approx",
        status=CompletenessStatus.COMPLETE,
        source="GHK18",
        note="Distributed set cover approximation.",
    ),
    CompletenessFact(
        problem="maxis-approx",
        status=CompletenessStatus.COMPLETE,
        source="Maus19",
        note=(
            "Polylogarithmic maximum independent set approximation; "
            "Theorem 1.1 — the result reproduced by this library."
        ),
    ),
]


def summary_table() -> List[Dict[str, str]]:
    """Return the registry as rows ready for tabular display."""
    return [
        {
            "problem": f.problem,
            "status": f.status.value,
            "source": f.source,
            "note": f.note,
        }
        for f in _FACTS
    ]
