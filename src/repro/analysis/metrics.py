"""Model costs: the SLOCAL-locality versus LOCAL-rounds comparison of the
model-gap experiment (E7), for one graph at a time."""

from __future__ import annotations

from typing import Dict

from repro.graphs.graph import Graph


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
