"""(C, D)-network decompositions.

A (C, D)-network decomposition partitions the vertices into clusters of
weak diameter at most ``D`` and colors the clusters with ``C`` colors so
that adjacent clusters receive different colors.  The
(polylog, polylog)-network decomposition problem is the canonical
P-SLOCAL-complete problem from [GKM17] that the whole completeness
landscape (and therefore the paper's result) is anchored to; this module
provides a simple ball-carving construction plus the verifier used by the
problem definition in :mod:`repro.reductions.problems`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.decomposition.clusters import Clustering, cluster_graph, weak_diameter
from repro.exceptions import ModelError, VerificationError
from repro.graphs.coloring import greedy_coloring
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances

Vertex = Hashable
ClusterId = Hashable


@dataclass
class NetworkDecomposition:
    """A cluster partition together with a proper cluster coloring.

    Attributes
    ----------
    clustering:
        The partition of the vertex set.
    cluster_colors:
        Mapping ``cluster id -> color`` (non-negative integers).
    """

    clustering: Clustering
    cluster_colors: Dict[ClusterId, int]

    def num_colors(self) -> int:
        """Number of distinct cluster colors used."""
        return len(set(self.cluster_colors.values()))

    def max_weak_diameter(self, graph: Graph) -> int:
        """Largest weak diameter over all clusters."""
        return max(
            (weak_diameter(graph, members) for members in self.clustering.clusters().values()),
            default=0,
        )


def ball_carving_decomposition(graph: Graph, radius: int) -> NetworkDecomposition:
    """Build a network decomposition by greedy ball carving.

    Repeatedly picks the smallest unassigned vertex (by ``repr``), carves
    the ball of hop radius ``radius`` around it *restricted to unassigned
    vertices*, and makes that a cluster.  Each cluster has weak diameter at
    most ``2·radius``; the cluster graph is then colored greedily.

    Parameters
    ----------
    graph:
        The host graph.
    radius:
        Carving radius (``≥ 0``); ``radius = 0`` yields singleton clusters.
    """
    if radius < 0:
        raise ModelError(f"radius must be non-negative, got {radius}")
    unassigned = set(graph.vertices)
    clustering = Clustering()
    next_cluster = 0
    while unassigned:
        seed = min(unassigned, key=repr)
        dist = bfs_distances(graph, seed, radius=radius)
        members = {v for v in dist if v in unassigned}
        for v in members:
            clustering.cluster_of[v] = next_cluster
        unassigned -= members
        next_cluster += 1

    quotient = cluster_graph(graph, clustering)
    colors = greedy_coloring(quotient)
    return NetworkDecomposition(clustering=clustering, cluster_colors=colors)


def polylog_decomposition(graph: Graph) -> NetworkDecomposition:
    """Network decomposition with radius ``⌈log2 n⌉`` — the (polylog, polylog) regime.

    For the instance sizes the library targets this produces clusters of
    weak diameter ``O(log n)``; the number of cluster colors is bounded by
    the quotient graph's degree + 1.
    """
    n = graph.num_vertices()
    radius = max(1, math.ceil(math.log2(n))) if n >= 2 else 0
    return ball_carving_decomposition(graph, radius)


def verify_network_decomposition(
    graph: Graph,
    decomposition: NetworkDecomposition,
    max_colors: Optional[int] = None,
    max_diameter: Optional[int] = None,
) -> None:
    """Raise :class:`VerificationError` unless ``decomposition`` is a valid (C, D)-decomposition.

    Parameters
    ----------
    max_colors:
        Required bound ``C`` on the number of cluster colors (``None`` skips
        the check).
    max_diameter:
        Required bound ``D`` on the weak diameter of every cluster
        (``None`` skips the check).
    """
    clustering = decomposition.clustering
    try:
        clustering.verify_partition(graph)
    except ModelError as exc:
        raise VerificationError(str(exc)) from exc

    missing_colors = set(clustering.cluster_ids()) - set(decomposition.cluster_colors)
    if missing_colors:
        raise VerificationError(
            f"{len(missing_colors)} clusters have no color, e.g. {next(iter(missing_colors))!r}"
        )

    quotient = cluster_graph(graph, clustering)
    for cu, cv in quotient.edges():
        if decomposition.cluster_colors[cu] == decomposition.cluster_colors[cv]:
            raise VerificationError(
                f"adjacent clusters {cu!r} and {cv!r} share color "
                f"{decomposition.cluster_colors[cu]!r}"
            )

    if max_colors is not None and decomposition.num_colors() > max_colors:
        raise VerificationError(
            f"{decomposition.num_colors()} cluster colors used, exceeding C = {max_colors}"
        )

    if max_diameter is not None:
        for cid, members in clustering.clusters().items():
            d = weak_diameter(graph, members)
            if d > max_diameter:
                raise VerificationError(
                    f"cluster {cid!r} has weak diameter {d}, exceeding D = {max_diameter}"
                )


def decomposition_quality(graph: Graph, decomposition: NetworkDecomposition) -> Tuple[int, int]:
    """Return the realized ``(C, D)`` pair of a decomposition."""
    return decomposition.num_colors(), decomposition.max_weak_diameter(graph)
