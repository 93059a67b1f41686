"""Deterministic and random graph generators used by examples, tests and benches.

All random generators take an explicit :class:`random.Random` instance or a
seed so that every experiment in the benchmark harness is reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def _rng(seed: Optional[Union[int, random.Random]]) -> random.Random:
    """Normalize a seed-or-Random argument into a Random instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def empty_graph(n: int) -> Graph:
    """Return a graph with ``n`` isolated vertices labelled ``0..n-1``."""
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    return Graph(vertices=range(n))


def path_graph(n: int) -> Graph:
    """Return the path P_n on vertices ``0..n-1``."""
    g = empty_graph(n)
    for u in range(n - 1):
        g.add_edge(u, u + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Return the cycle C_n on vertices ``0..n-1`` (requires ``n ≥ 3``)."""
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows × cols`` grid graph with vertices ``(r, c)``."""
    if rows < 0 or cols < 0:
        raise GraphError("grid dimensions must be non-negative")
    g = Graph(vertices=[(r, c) for r in range(rows) for c in range(cols)])
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g


def erdos_renyi_graph(
    n: int, p: float, seed: Optional[Union[int, random.Random]] = None
) -> Graph:
    """Return a G(n, p) random graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    p:
        Edge probability in ``[0, 1]``.
    seed:
        Seed or :class:`random.Random` instance for reproducibility.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = _rng(seed)
    g = empty_graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_tree(n: int, seed: Optional[Union[int, random.Random]] = None) -> Graph:
    """Return a uniformly random labelled tree on ``0..n-1`` (Prüfer sequence)."""
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    if n <= 1:
        return empty_graph(n)
    if n == 2:
        g = empty_graph(2)
        g.add_edge(0, 1)
        return g
    rng = _rng(seed)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in pruefer:
        degree[v] += 1
    g = empty_graph(n)
    for v in pruefer:
        for leaf in range(n):
            if degree[leaf] == 1:
                g.add_edge(leaf, v)
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    g.add_edge(last[0], last[1])
    return g
