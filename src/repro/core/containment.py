"""The containment direction: MaxIS approximation is in P-SLOCAL.

Theorem 1.1's containment half is cited from [GKM17, Theorem 7.1]: any
problem whose solutions can be verified locally — in particular computing
good independent sets — admits a polylogarithmic SLOCAL algorithm.  The
constructive idea is the standard cluster-by-cluster argument:

1. compute a network decomposition with cluster (weak) diameter
   ``O(log n)``;
2. process the cluster color classes sequentially; every cluster solves its
   own subproblem *optimally* on its induced subgraph, excluding vertices
   already dominated by neighboring clusters processed earlier.

The resulting independent set is maximal, and because every cluster
contributes an optimum of its residual subgraph the practical approximation
quality is far better than the maximality guarantee:
``tests/core/test_containment.py`` checks it within a factor 3 of the exact
optimum, and within 2 for every carving radius on a grid.

This module is an executable companion to the cited containment result —
its purpose is to exercise the SLOCAL machinery end to end on the MaxIS
problem itself, not to re-prove [GKM17]'s approximation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from repro.decomposition.clusters import Clustering
from repro.decomposition.network_decomposition import (
    NetworkDecomposition,
    ball_carving_decomposition,
)
from repro.exceptions import ReductionError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import maximum_independent_set, verify_independent_set

Vertex = Hashable


@dataclass
class ClusterwiseMaxISResult:
    """Result of the cluster-by-cluster SLOCAL MaxIS computation.

    Attributes
    ----------
    independent_set:
        The produced independent set (always maximal).
    decomposition:
        The network decomposition that was used.
    cluster_contributions:
        Per-cluster count of selected vertices.
    locality:
        The effective SLOCAL locality: a cluster only inspects its own
        (weak-diameter-bounded) ball plus one extra hop for the boundary, so
        the locality is ``max cluster weak diameter + 1``.
    """

    independent_set: Set[Vertex]
    decomposition: NetworkDecomposition
    cluster_contributions: Dict[Hashable, int]
    locality: int


def clusterwise_maxis(
    graph: Graph,
    decomposition: Optional[NetworkDecomposition] = None,
    cluster_size_limit: int = 64,
) -> ClusterwiseMaxISResult:
    """Compute an independent set cluster by cluster along a network decomposition.

    Parameters
    ----------
    graph:
        The input graph.
    decomposition:
        Optional pre-computed network decomposition; defaults to ball
        carving with radius ``⌈log2 n⌉`` (the polylog regime).
    cluster_size_limit:
        Safety bound on the exact per-cluster solve; clusters larger than
        this fall back to the min-degree greedy heuristic so the procedure
        stays polynomial on adversarial decompositions.

    Returns
    -------
    ClusterwiseMaxISResult
        The independent set together with per-cluster accounting.
    """
    n = graph.num_vertices()
    if decomposition is None:
        radius = max(1, math.ceil(math.log2(n))) if n >= 2 else 0
        decomposition = ball_carving_decomposition(graph, radius)

    clustering: Clustering = decomposition.clustering
    clustering.verify_partition(graph)

    # Process cluster color classes in increasing color order; clusters of
    # the same color are non-adjacent, so their choices cannot conflict.
    clusters_by_color: Dict[int, List] = {}
    for cluster_id in clustering.cluster_ids():
        color = decomposition.cluster_colors.get(cluster_id)
        if color is None:
            raise ReductionError(f"cluster {cluster_id!r} has no color")
        clusters_by_color.setdefault(color, []).append(cluster_id)

    selected: Set[Vertex] = set()
    contributions: Dict[Hashable, int] = {}
    cluster_members = clustering.clusters()
    for color in sorted(clusters_by_color):
        for cluster_id in sorted(clusters_by_color[color], key=repr):
            members = cluster_members[cluster_id]
            # Exclude vertices already dominated by selections of earlier
            # clusters (those selections live in neighboring clusters).
            blocked = {v for v in members if graph.neighbors(v) & selected}
            available = members - blocked
            if not available:
                contributions[cluster_id] = 0
                continue
            subgraph = graph.subgraph(available)
            if subgraph.num_vertices() <= cluster_size_limit:
                local_choice = maximum_independent_set(subgraph)
            else:
                from repro.graphs.independent_sets import greedy_min_degree_independent_set

                local_choice = greedy_min_degree_independent_set(subgraph)
            selected |= local_choice
            contributions[cluster_id] = len(local_choice)

    verify_independent_set(graph, selected)
    locality = decomposition.max_weak_diameter(graph) + 1 if n else 0
    return ClusterwiseMaxISResult(
        independent_set=selected,
        decomposition=decomposition,
        cluster_contributions=contributions,
        locality=locality,
    )


def is_maximal(graph: Graph, result: ClusterwiseMaxISResult) -> bool:
    """Return ``True`` if the produced set is inclusion-maximal (it always should be)."""
    from repro.graphs.independent_sets import is_maximal_independent_set

    return is_maximal_independent_set(graph, result.independent_set)
