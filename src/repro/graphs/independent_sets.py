"""Independent-set machinery on plain graphs.

This module provides the *exact* maximum-independent-set solver used as
ground truth in tests and benchmarks, verification helpers, and the basic
greedy procedures.  The λ-approximation algorithms consumed by the paper's
reduction live in :mod:`repro.maxis`; they build on the primitives here.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Optional, Sequence, Set, Union

from repro.exceptions import GraphError, IndependenceError
from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph

Vertex = Hashable


def verify_independent_ids(graph: IndexedGraph, ids: Iterable[int]) -> None:
    """Raise :class:`IndependenceError` unless ``ids`` is an independent set of ``graph``'s ids.

    Each id must be alive (a vertex of ``graph``, which may be an
    alive-mask subgraph view), no id may repeat and no two may be
    adjacent.  One pass, three bitset tests per id: against the alive
    mask, against the mask of the ids before it, and its row against that
    mask.
    """
    alive = graph.alive_mask()
    rows = graph._bitsets  # raw rows: the mask below only holds alive ids
    mask = 0
    for i in ids:
        if i < 0 or not (alive >> i) & 1:
            raise IndependenceError(f"id {i!r} is not a vertex of the graph")
        bit = 1 << i
        if mask & bit:
            raise IndependenceError("candidate contains duplicate vertices")
        conflict = rows[i] & mask
        if conflict:
            j = (conflict & -conflict).bit_length() - 1
            raise IndependenceError(f"ids {j} and {i} are adjacent")
        mask |= bit


def verify_independent_set(graph, candidate: Iterable[Vertex]) -> None:
    """Raise :class:`IndependenceError` unless ``candidate`` is independent in ``graph``.

    Both membership of every vertex and pairwise non-adjacency are checked.
    ``graph`` may be a mutable :class:`Graph` or a frozen
    :class:`~repro.graphs.indexed.IndexedGraph` (including alive-mask
    subgraph views); the frozen path interns the candidate and checks its
    ids with :func:`verify_independent_ids`.
    """
    vs = list(candidate)
    if isinstance(graph, IndexedGraph):
        ids = []
        for v in vs:
            try:
                ids.append(graph.index_of(v))
            except GraphError:
                raise IndependenceError(
                    f"vertex {v!r} is not a vertex of the graph"
                ) from None
        verify_independent_ids(graph, ids)
        return
    for v in vs:
        if v not in graph:
            raise IndependenceError(f"vertex {v!r} is not a vertex of the graph")
    vset = set(vs)
    if len(vset) != len(vs):
        raise IndependenceError("candidate contains duplicate vertices")
    for v in vset:
        conflict = vset.intersection(graph.adjacent(v))
        if conflict:
            raise IndependenceError(
                f"vertices {v!r} and {next(iter(conflict))!r} are adjacent"
            )


def is_maximal_independent_set(graph: Graph, candidate: Iterable[Vertex]) -> bool:
    """Return ``True`` iff ``candidate`` is an *inclusion-maximal* independent set."""
    vset = set(candidate)
    verify_independent_set(graph, vset)
    for v in graph:
        if v not in vset and vset.isdisjoint(graph.adjacent(v)):
            return False
    return True


def greedy_maximal_independent_set(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> Set[Vertex]:
    """Compute a maximal independent set greedily along ``order``.

    This is exactly the SLOCAL algorithm with locality 1 described in the
    paper's introduction: process nodes in an arbitrary order and join the
    independent set if no already-processed neighbor has joined.

    Parameters
    ----------
    graph:
        The input graph.
    order:
        Processing order; defaults to a deterministic sorted order by
        ``repr`` so that the result is reproducible.
    """
    if order is None:
        order = sorted(graph.vertices, key=repr)
    else:
        order = list(order)
        if set(order) != graph.vertices:
            raise GraphError("order must be a permutation of the vertex set")
    selected: Set[Vertex] = set()
    for v in order:
        if selected.isdisjoint(graph.adjacent(v)):
            selected.add(v)
    return selected


def greedy_min_degree_independent_set(graph: Graph) -> Set[Vertex]:
    """Greedy independent set repeatedly taking a minimum-degree vertex.

    This classical heuristic achieves the Turán-type guarantee
    ``|I| ≥ n / (Δ + 1)`` and tends to perform much better in practice.

    This is the *reference* implementation (kept simple on purpose; it is
    the oracle the property tests compare against).  The production
    kernel of the ``greedy-min-degree`` approximator, which keeps the
    residual degrees of a frozen :class:`IndexedGraph` in bit planes and
    has identical output, is
    :func:`repro.graphs.indexed.min_degree_greedy_ids`.
    """
    work = graph.copy()
    selected: Set[Vertex] = set()
    while work.num_vertices() > 0:
        v = min(work.vertices, key=lambda u: (work.degree(u), repr(u)))
        selected.add(v)
        to_remove = work.neighbors(v) | {v}
        for u in to_remove:
            work.remove_vertex(u)
    verify_independent_set(graph, selected)
    return selected


def luby_mis(
    graph: Graph, seed: Optional[Union[int, random.Random]] = None
) -> Set[Vertex]:
    """One maximal IS via Luby-style coin-flip rounds (reference implementation).

    Each round draws one fair coin per alive vertex (a single
    ``getrandbits(#alive)`` per round; bit ``j`` belongs to the ``j``-th
    alive vertex in ascending ``repr`` order), thins the marked vertices to
    an independent set first-fit along the same order, commits the winners
    and deletes their closed neighborhoods.  Rounds repeat until no vertex
    is alive, so the result is a maximal independent set; with a seeded rng
    the whole run is deterministic.

    This is the *reference* path of the bit-parallel batched kernel
    :func:`repro.maxis.luby_based.luby_batch_mis_ids`, which packs the coin
    flips of many trials into machine-word lanes: trial ``t`` of the batch
    must reproduce ``luby_mis(graph, seed=trial_seed_t)`` bit for bit (the
    differential tests under ``tests/fuzz`` assert exactly that), so the
    two implementations must consume randomness identically — rounds
    outermost, alive vertices ascending within a round.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    order = sorted(graph.vertices, key=repr)
    alive: Set[Vertex] = set(order)
    selected: Set[Vertex] = set()
    while alive:
        alive_order = [v for v in order if v in alive]
        bits = rng.getrandbits(len(alive_order))
        round_sel: Set[Vertex] = set()
        for j, v in enumerate(alive_order):
            if (bits >> j) & 1 and round_sel.isdisjoint(graph.adjacent(v)):
                round_sel.add(v)
        for v in round_sel:
            alive.discard(v)
            alive -= graph.adjacent(v)
        selected |= round_sel
    verify_independent_set(graph, selected)
    return selected


def maximum_independent_set(graph: Graph) -> Set[Vertex]:
    """Return a maximum independent set, computed exactly.

    The solver is a branch-and-bound over the standard recurrence
    ``α(G) = max(α(G − N[v] ) + 1, α(G − v))`` branching on a maximum-degree
    vertex, with memoization on the remaining vertex set.  The search runs
    on a frozen :class:`~repro.graphs.indexed.IndexedGraph` (vertices
    interned in ``repr`` order) so the active set, memo keys and all
    neighborhood algebra are machine-word-parallel bitset operations.
    Exponential in the worst case — intended for the ground-truth
    comparisons on small and medium instances used by the test-suite.
    """
    from repro.graphs.indexed import maximum_independent_set_mask

    if graph.num_vertices() == 0:
        return set()
    frozen = graph.freeze(order=sorted(graph.vertices, key=repr))
    best = frozen.labels_for_mask(maximum_independent_set_mask(frozen))
    verify_independent_set(graph, best)
    return best


def independence_number(graph: Graph) -> int:
    """Return ``α(G)``, the size of a maximum independent set."""
    return len(maximum_independent_set(graph))
