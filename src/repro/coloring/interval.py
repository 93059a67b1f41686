"""Conflict-free coloring of interval hypergraphs ([DN18] setting).

The unpublished work [DN18] that the paper adapts solves conflict-free
coloring on *interval hypergraphs*: vertices are points on a line and
hyperedges are the subsets induced by intervals.  The classical
divide-and-conquer algorithm colors the median point with the smallest
color of the current level and recurses on both halves with the next
color; every interval covers a contiguous range of points, and the point
of minimum color inside the range is unique, so ``⌈log2(n)⌉ + 1`` colors
always suffice.

This module provides that optimal-order algorithm plus the helpers that
compare it with the paper's MaxIS-approximation reduction on the same
instances (``tests/test_integration.py`` checks both routes).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence

from repro.coloring.conflict_free import verify_conflict_free_coloring
from repro.exceptions import ColoringError, HypergraphError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable


def is_interval_hypergraph(hypergraph: Hypergraph, order: Sequence[Vertex]) -> bool:
    """Return ``True`` if every hyperedge is contiguous with respect to ``order``.

    ``order`` must be a permutation of the vertex set (the left-to-right
    order of the points on the line).
    """
    position = {v: i for i, v in enumerate(order)}
    if set(position) != hypergraph.vertices:
        raise HypergraphError("order must be a permutation of the vertex set")
    for _, members in hypergraph.edges():
        indices = sorted(position[v] for v in members)
        if indices[-1] - indices[0] + 1 != len(indices):
            return False
    return True


def divide_and_conquer_coloring(order: Sequence[Vertex]) -> Dict[Vertex, int]:
    """Color points so that every interval of ``order`` has a unique minimum color.

    The median of the current range receives the current color; both halves
    recurse with the next color.  Any contiguous range then contains exactly
    one vertex holding the minimum color present in the range, so the
    coloring is conflict-free for *every* interval hypergraph over ``order``.

    Colors are ``1 … ⌈log2(n+1)⌉``.
    """
    order_list = list(order)
    coloring: Dict[Vertex, int] = {}

    def recurse(lo: int, hi: int, color: int) -> None:
        if lo > hi:
            return
        mid = (lo + hi) // 2
        coloring[order_list[mid]] = color
        recurse(lo, mid - 1, color + 1)
        recurse(mid + 1, hi, color + 1)

    recurse(0, len(order_list) - 1, 1)
    return coloring


def interval_conflict_free_coloring(
    hypergraph: Hypergraph, order: Sequence[Vertex]
) -> Dict[Vertex, int]:
    """Conflict-free coloring of an interval hypergraph with ``O(log n)`` colors.

    Parameters
    ----------
    hypergraph:
        An interval hypergraph with respect to ``order``.
    order:
        Left-to-right order of the points.

    Raises
    ------
    ColoringError
        If the hypergraph is not an interval hypergraph for ``order``.
    """
    if not is_interval_hypergraph(hypergraph, order):
        raise ColoringError("hypergraph is not an interval hypergraph for the given order")
    coloring = divide_and_conquer_coloring(order)
    verify_conflict_free_coloring(hypergraph, coloring)
    return coloring


def interval_color_bound(n: int) -> int:
    """Return the ``⌈log2(n+1)⌉`` upper bound on colors used by the D&C algorithm."""
    if n < 0:
        raise ColoringError(f"n must be non-negative, got {n}")
    if n == 0:
        return 0
    return math.ceil(math.log2(n + 1))


def canonical_point_order(hypergraph: Hypergraph) -> List[Vertex]:
    """Return the natural sorted order of integer-indexed interval hypergraph vertices.

    The generators in :mod:`repro.hypergraph.generators` label points with
    their index, so sorting the vertices recovers the geometric order.
    """
    return sorted(hypergraph.vertices, key=lambda v: (not isinstance(v, int), v if isinstance(v, int) else repr(v)))
