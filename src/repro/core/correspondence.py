"""The Lemma 2.1 correspondence between colorings of ``H`` and independent sets of ``G_k``.

Direction (a): a conflict-free ``k``-coloring ``f`` of ``H`` induces an
independent set ``I_f`` of the conflict graph with exactly one triple per
hyperedge, hence ``|I_f| = m``; no independent set can be larger because
the ``E_edge`` relation makes each edge's triples a clique.

Direction (b): any independent set ``I`` of ``G_k`` induces a well-defined
partial coloring ``f_I`` (``E_vertex`` forbids two colors at one vertex)
under which at least ``|I|`` hyperedges are happy.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set, Union

from repro.coloring.conflict_free import UNCOLORED, unique_color_vertices
from repro.core.conflict_graph import ConflictGraph, ConflictVertex
from repro.exceptions import ColoringError, ReductionError
from repro.graphs.independent_sets import verify_independent_ids, verify_independent_set

Vertex = Hashable
Color = int


def coloring_to_independent_set(
    conflict_graph: ConflictGraph,
    coloring: Dict[Vertex, Color],
    require_conflict_free: bool = True,
) -> Set[ConflictVertex]:
    """Build the independent set ``I_f`` of Lemma 2.1(a) from a coloring ``f``.

    For every surviving hyperedge ``e`` of ``conflict_graph`` that is happy
    under ``coloring`` the set receives one triple ``(e, v, f(v))`` where
    ``v`` is a vertex whose color is unique within ``e`` (ties broken
    deterministically by ``repr``).

    Parameters
    ----------
    conflict_graph:
        The conflict graph ``G_k`` of the hypergraph.
    coloring:
        A (partial) coloring of the hypergraph with colors in ``1..k``.
    require_conflict_free:
        When ``True`` (the default, matching the lemma statement) every
        hyperedge must be happy and the resulting set has size exactly
        ``m``; when ``False`` unhappy edges simply contribute nothing.

    Raises
    ------
    ColoringError
        If a used color lies outside ``1..k``, or ``require_conflict_free``
        is set and some edge is unhappy.
    """
    hypergraph = conflict_graph.hypergraph
    k = conflict_graph.k
    for v, c in coloring.items():
        if c is UNCOLORED:
            continue
        if not isinstance(c, int) or not 1 <= c <= k:
            raise ColoringError(
                f"vertex {v!r} has color {c!r}, outside the palette 1..{k}"
            )

    independent_set: Set[ConflictVertex] = set()
    for e in conflict_graph.hyperedge_ids():
        unique = unique_color_vertices(hypergraph, coloring, e)
        if not unique:
            if require_conflict_free:
                raise ColoringError(
                    f"edge {e!r} is not happy; the coloring is not conflict-free"
                )
            continue
        v = min(unique, key=repr)
        independent_set.add(ConflictVertex(edge=e, vertex=v, color=coloring[v]))

    # The lemma asserts independence; verifying it here turns any bug in the
    # construction (or in the conflict-graph definition) into a loud failure.
    verify_independent_set(conflict_graph.frozen(), independent_set)
    return independent_set


def independent_set_to_coloring(
    conflict_graph: ConflictGraph,
    independent_set: Iterable[Union[ConflictVertex, int]],
) -> Dict[Vertex, Color]:
    """Build the partial coloring ``f_I`` of Lemma 2.1(b) from an independent set.

    ``f_I(v) = c`` if some triple ``(·, v, c)`` belongs to the independent
    set and ``⊥`` (absent from the returned dict) otherwise.  The set may
    be given as :class:`ConflictVertex` triples or as the triple ids of
    ``conflict_graph.frozen()`` (what ``approximator(view, ids=True)``
    returns); id ``i`` is the triple ``(·, pair_vertex[i // k],
    colors[i % k])`` (see :mod:`repro.core.conflict_graph`), so no triple
    is built.  Either way the dict is filled in ``repr`` order of the
    triples, which is ascending id order.

    Raises
    ------
    IndependenceError
        If the input is not an independent set of the conflict graph.
    ReductionError
        If the coloring would be ill-defined (two triples with the same
        vertex but different colors) — by the ``E_vertex`` relation this can
        only happen when the input was not independent, so this error
        indicates an inconsistent conflict graph.
    """
    items = list(independent_set)
    if all(type(t) is int for t in items):
        ids = sorted(items)
        verify_independent_ids(conflict_graph.frozen(), ids)
        k = conflict_graph.k
        pair_vertex, colors = conflict_graph.build.pair_vertex, conflict_graph.build.colors
        assigned = [(pair_vertex[i // k], colors[i % k]) for i in ids]
    else:
        triples = set(items)
        for t in triples:
            if not isinstance(t, ConflictVertex):
                raise ReductionError(f"{t!r} is not a ConflictVertex triple")
        verify_independent_set(conflict_graph.frozen(), triples)
        assigned = [(t.vertex, t.color) for t in sorted(triples, key=repr)]

    coloring: Dict[Vertex, Color] = {}
    for v, c in assigned:
        existing = coloring.get(v)
        if existing is not None and existing != c:
            raise ReductionError(
                f"independent set assigns two colors ({existing}, {c}) to "
                f"vertex {v!r}; E_vertex should have prevented this"
            )
        coloring[v] = c
    return coloring


def happy_edges_of_independent_set(
    conflict_graph: ConflictGraph,
    independent_set: Iterable[ConflictVertex],
) -> Set:
    """Return the surviving hyperedges made happy by ``f_I`` (Lemma 2.1(b): at least ``|I|``).

    The proof of the lemma shows a stronger, constructive fact: for every
    triple ``(e, v, c)`` in the independent set the edge ``e`` itself is
    happy.  This function returns the happy-edge set of the induced
    coloring, which therefore always contains ``{t.edge for t in I}``.
    """
    coloring = independent_set_to_coloring(conflict_graph, independent_set)
    return conflict_graph.happy_edges(coloring)


def verify_lemma_21a(
    conflict_graph: ConflictGraph, coloring: Dict[Vertex, Color]
) -> Set[ConflictVertex]:
    """Check Lemma 2.1(a) on a concrete instance and return the witness ``I_f``.

    Asserts that ``I_f`` is independent (checked during construction) and
    has size exactly ``m``, the number of surviving hyperedges.
    """
    witness = coloring_to_independent_set(conflict_graph, coloring, require_conflict_free=True)
    m = conflict_graph.num_hyperedges()
    if len(witness) != m:
        raise ReductionError(
            f"Lemma 2.1(a) violated: |I_f| = {len(witness)} but m = {m}"
        )
    return witness


def verify_lemma_21b(
    conflict_graph: ConflictGraph, independent_set: Iterable[ConflictVertex]
) -> Set:
    """Check Lemma 2.1(b) on a concrete instance and return the happy-edge set.

    Asserts that the induced coloring is well defined and that the number of
    happy edges is at least ``|I|``.
    """
    triples = set(independent_set)
    happy = happy_edges_of_independent_set(conflict_graph, triples)
    if len(happy) < len(triples):
        raise ReductionError(
            f"Lemma 2.1(b) violated: |I| = {len(triples)} but only "
            f"{len(happy)} edges are happy"
        )
    missing = {t.edge for t in triples} - happy
    if missing:
        raise ReductionError(
            f"Lemma 2.1(b) witness property violated: edges {sorted(missing, key=repr)!r} "
            "selected by the independent set are not happy"
        )
    return happy


def maximum_independent_set_size_bound(conflict_graph: ConflictGraph) -> int:
    """Return the upper bound ``α(G_k) ≤ m`` from the proof of Lemma 2.1(a).

    The ``E_edge`` relation turns the triples of each hyperedge into a
    clique, so an independent set contains at most one triple per edge;
    ``m`` counts the surviving hyperedges.
    """
    return conflict_graph.num_hyperedges()
