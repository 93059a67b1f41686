"""Cross-cutting metrics: approximation quality, model costs.

These helpers compute, for a given instance, numbers to report side by
side — e.g. the measured approximation ratio of every registered MaxIS
oracle, or the SLOCAL-locality versus LOCAL-rounds comparison of the
model-gap experiment (E7).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.graphs.graph import Graph
from repro.graphs.independent_sets import independence_number
from repro.maxis.approximators import available_approximators

Vertex = Hashable


def approximator_quality_table(
    graph: Graph,
    names: Optional[List[str]] = None,
    optimum: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Measure every (selected) registered approximator on one graph.

    Returns one row per approximator with the set size, the measured ratio
    ``α(G)/|I|`` and the worst-case guarantee the algorithm claims on this
    instance.  ``optimum`` may be supplied to avoid recomputing α(G).
    """
    registry = available_approximators()
    if names is None:
        names = sorted(registry)
    if optimum is None:
        optimum = independence_number(graph)
    rows: List[Dict[str, float]] = []
    for name in names:
        approximator = registry[name]
        solution = approximator(graph)
        ratio = (optimum / len(solution)) if solution else float("inf")
        if optimum == 0:
            ratio = 1.0
        guarantee = approximator.guaranteed_lambda(graph)
        rows.append(
            {
                "approximator": name,
                "size": float(len(solution)),
                "optimum": float(optimum),
                "measured_ratio": ratio,
                "guaranteed_lambda": float(guarantee) if guarantee is not None else float("nan"),
            }
        )
    return rows


def mis_model_comparison(graph: Graph, seed: int = 0) -> Dict[str, float]:
    """Compare the SLOCAL locality-1 MIS with Luby's LOCAL MIS on one graph.

    Returns the sizes of the two (valid) MIS outputs, the locality the
    SLOCAL engine ran :class:`~repro.slocal.algorithms.SLOCALMIS` at, and
    the number of LOCAL communication rounds Luby's algorithm used.
    """
    from repro.graphs.independent_sets import is_maximal_independent_set
    from repro.local_model.algorithms import luby_mis
    from repro.slocal.algorithms import SLOCALMIS
    from repro.slocal.engine import SLOCALEngine

    slocal = SLOCALEngine(graph).run(SLOCALMIS())
    slocal_set = {v for v, joined in slocal.outputs.items() if joined}
    luby_set, run = luby_mis(graph, seed=seed)
    return {
        "n": float(graph.num_vertices()),
        "slocal_mis_size": float(len(slocal_set)),
        "slocal_locality": float(slocal.locality),
        "slocal_valid": 1.0 if is_maximal_independent_set(graph, slocal_set) else 0.0,
        "luby_mis_size": float(len(luby_set)),
        "luby_rounds": float(run.rounds),
        "luby_valid": 1.0 if is_maximal_independent_set(graph, luby_set) else 0.0,
    }
