"""Hypergraph generators for the workloads of the benchmark harness.

The hardness reduction of the paper (Theorem 1.2) is stated for
*almost-uniform* hypergraphs: there exists a ``k`` with
``k ≤ |e| ≤ (1 + ε)·k`` for every hyperedge ``e``, the number of
hyperedges is polynomial in ``n``, and the hypergraph admits a
conflict-free ``k``-coloring with ``k = polylog(n)`` in which every vertex
receives a single color.  The generators in this module produce such
instances (with a planted conflict-free coloring so that the premise of
Theorem 1.1's analysis is guaranteed to hold), plus the interval
hypergraphs of [DN18] and generic random hypergraphs for stress testing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import HypergraphError
from repro.hypergraph.hypergraph import Hypergraph


def _rng(seed: Optional[Union[int, random.Random]]) -> random.Random:
    """Normalize a seed-or-Random argument into a Random instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def uniform_random_hypergraph(
    n: int,
    m: int,
    edge_size: int,
    seed: Optional[Union[int, random.Random]] = None,
) -> Hypergraph:
    """Return a hypergraph with ``m`` random hyperedges of exactly ``edge_size`` vertices.

    Vertices are ``0..n-1``.  Hyperedges are sampled uniformly without
    replacement within each edge; distinct edges may coincide as vertex sets
    (they keep distinct ids).
    """
    if edge_size <= 0:
        raise HypergraphError(f"edge_size must be positive, got {edge_size}")
    if edge_size > n:
        raise HypergraphError(f"edge_size {edge_size} exceeds number of vertices {n}")
    rng = _rng(seed)
    h = Hypergraph(vertices=range(n))
    universe = list(range(n))
    for i in range(m):
        h.add_edge(rng.sample(universe, edge_size), edge_id=i)
    return h


def almost_uniform_hypergraph(
    n: int,
    m: int,
    k: int,
    epsilon: float = 0.5,
    seed: Optional[Union[int, random.Random]] = None,
) -> Hypergraph:
    """Return an almost-uniform hypergraph: each edge has size in ``[k, (1+ε)k]``.

    Parameters
    ----------
    n:
        Number of vertices (labelled ``0..n-1``).
    m:
        Number of hyperedges.
    k:
        Lower bound on the edge sizes (the uniformity parameter of the paper).
    epsilon:
        Almost-uniformity slack, ``0 < ε ≤ 1``.
    seed:
        Seed or :class:`random.Random` for reproducibility.
    """
    if not 0 < epsilon <= 1:
        raise HypergraphError(f"epsilon must lie in (0, 1], got {epsilon}")
    if k <= 0:
        raise HypergraphError(f"k must be positive, got {k}")
    max_size = int((1 + epsilon) * k)
    if max_size > n:
        raise HypergraphError(
            f"(1+epsilon)*k = {max_size} exceeds the number of vertices {n}"
        )
    rng = _rng(seed)
    h = Hypergraph(vertices=range(n))
    universe = list(range(n))
    for i in range(m):
        size = rng.randint(k, max_size)
        h.add_edge(rng.sample(universe, size), edge_id=i)
    return h


def colorable_almost_uniform_hypergraph(
    n: int,
    m: int,
    k: int,
    epsilon: float = 0.5,
    seed: Optional[Union[int, random.Random]] = None,
) -> Tuple[Hypergraph, Dict[int, int]]:
    """Return an almost-uniform hypergraph *together with* a planted CF k-coloring.

    The hardness statement of Theorem 1.2 only concerns hypergraphs that
    admit a conflict-free ``k``-coloring in which each vertex has a single
    color; the reduction's phase analysis relies on this premise.  This
    generator therefore plants such a coloring: vertices are colored
    uniformly at random with ``{1, …, k}`` and each hyperedge is built so
    that it contains exactly one vertex of some color.

    Returns
    -------
    (hypergraph, planted_coloring)
        ``planted_coloring`` maps every vertex to a color in ``1..k`` and is
        a conflict-free coloring of the returned hypergraph.
    """
    if not 0 < epsilon <= 1:
        raise HypergraphError(f"epsilon must lie in (0, 1], got {epsilon}")
    if k <= 0:
        raise HypergraphError(f"k must be positive, got {k}")
    max_size = int((1 + epsilon) * k)
    if max_size > n:
        raise HypergraphError(
            f"(1+epsilon)*k = {max_size} exceeds the number of vertices {n}"
        )
    rng = _rng(seed)
    # Plant the coloring: make sure every color class is non-empty so that
    # any color can serve as the unique color of an edge.
    colors = list(range(1, k + 1))
    planted: Dict[int, int] = {}
    for v in range(n):
        planted[v] = colors[v % k] if v < k else rng.choice(colors)
    by_color: Dict[int, List[int]] = {c: [] for c in colors}
    for v, c in planted.items():
        by_color[c].append(v)

    # The candidate pool of color c: every vertex of another color, in vertex
    # order, built once.  An edge whose unique color is c draws its other
    # members from it; the unique vertex has color c, so it is never in it.
    pools = {c: [v for v in range(n) if planted[v] != c] for c in colors}
    pool_size = {c: len(pools[c]) for c in colors}

    h = Hypergraph(vertices=range(n))
    for i in range(m):
        size = rng.randint(k, max_size)
        # The edge needs `size - 1` members outside the unique color class,
        # so only colors with a large enough complement are feasible.  If the
        # drawn size is infeasible for every color, shrink it towards k.
        feasible = [c for c in colors if pool_size[c] >= size - 1]
        if not feasible:
            size = max(k, 1 + max(pool_size.values()))
            feasible = [c for c in colors if pool_size[c] >= size - 1]
            if not feasible:
                raise HypergraphError(
                    "not enough vertices outside every color class to build edges of "
                    f"size {k}; increase n or decrease k"
                )
        unique_color = rng.choice(feasible)
        unique_vertex = rng.choice(by_color[unique_color])
        # The remaining members must avoid color `unique_color` so that
        # `unique_vertex` stays the unique vertex of that color in the edge.
        members = rng.sample(pools[unique_color], size - 1) + [unique_vertex]
        h.add_edge(members, edge_id=i)
    return h, planted


def interval_hypergraph(
    points: Sequence[float],
    intervals: Sequence[Tuple[float, float]],
) -> Hypergraph:
    """Return the interval hypergraph of ``points`` with respect to ``intervals``.

    Vertices are the indices of ``points``; hyperedge ``i`` contains every
    point index lying inside the closed interval ``intervals[i]``.  Empty
    intervals (containing no point) are skipped, because hyperedges must be
    non-empty.  This is the setting of [DN18], which the paper's reduction
    technique is adapted from.
    """
    h = Hypergraph(vertices=range(len(points)))
    next_id = 0
    for lo, hi in intervals:
        if lo > hi:
            raise HypergraphError(f"interval ({lo}, {hi}) has lo > hi")
        members = [i for i, p in enumerate(points) if lo <= p <= hi]
        if members:
            h.add_edge(members, edge_id=next_id)
            next_id += 1
    return h


def random_interval_hypergraph(
    n_points: int,
    n_intervals: int,
    seed: Optional[Union[int, random.Random]] = None,
) -> Hypergraph:
    """Return an interval hypergraph over random points and random intervals in [0, 1]."""
    rng = _rng(seed)
    points = sorted(rng.random() for _ in range(n_points))
    intervals = []
    for _ in range(n_intervals):
        a, b = rng.random(), rng.random()
        intervals.append((min(a, b), max(a, b)))
    return interval_hypergraph(points, intervals)


def sunflower_hypergraph(n_petals: int, petal_size: int, core_size: int = 1) -> Hypergraph:
    """Return a sunflower: every pair of hyperedges intersects exactly in the core.

    The core vertices are ``("core", i)``; petal ``p`` additionally contains
    ``("petal", p, j)`` for ``j < petal_size``.  Useful as a structured
    adversarial instance: every edge shares the core, so a conflict-free
    coloring must make a core vertex or a private petal vertex unique.
    """
    if n_petals <= 0 or petal_size < 0 or core_size < 0:
        raise HypergraphError("sunflower parameters must be positive / non-negative")
    if petal_size == 0 and core_size == 0:
        raise HypergraphError("hyperedges would be empty")
    core = [("core", i) for i in range(core_size)]
    h = Hypergraph(vertices=core)
    for p in range(n_petals):
        petal = [("petal", p, j) for j in range(petal_size)]
        h.add_edge(core + petal, edge_id=p)
    return h
