"""Conflict-free colorings of hypergraphs: definitions, happy edges, verification.

A (single-color) conflict-free k-coloring of a hypergraph ``H = (V, E)``
is a map ``f : V → {1, …, k}`` such that every hyperedge ``e`` contains a
vertex whose color is unique within ``e``.  Following the paper, an edge
with this property is called **happy**; in intermediate stages of the
reduction only some edges are happy and uncolored vertices are denoted by
``UNCOLORED`` (the paper's ``⊥``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.exceptions import ColoringError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable
Color = Hashable

#: Sentinel standing for the paper's ``⊥`` (vertex not colored).
UNCOLORED = None


def color_of(coloring: Dict[Vertex, Color], vertex: Vertex) -> Color:
    """Return the color of ``vertex`` in a partial coloring (``UNCOLORED`` if absent)."""
    return coloring.get(vertex, UNCOLORED)


def unique_color_vertices(
    hypergraph: Hypergraph, coloring: Dict[Vertex, Color], edge_id
) -> Set[Vertex]:
    """Return the vertices of ``edge_id`` whose color appears exactly once in the edge.

    Uncolored vertices (color ``UNCOLORED``) never count as uniquely colored.
    """
    members = hypergraph.edge(edge_id)
    counts: Dict[Color, int] = {}
    for v in members:
        c = color_of(coloring, v)
        if c is UNCOLORED:
            continue
        counts[c] = counts.get(c, 0) + 1
    return {
        v
        for v in members
        if color_of(coloring, v) is not UNCOLORED and counts[color_of(coloring, v)] == 1
    }


def is_happy(hypergraph: Hypergraph, coloring: Dict[Vertex, Color], edge_id) -> bool:
    """Return ``True`` if hyperedge ``edge_id`` is happy under ``coloring``."""
    return bool(unique_color_vertices(hypergraph, coloring, edge_id))


def happy_edges(hypergraph: Hypergraph, coloring: Dict[Vertex, Color]) -> Set:
    """Return the set of edge ids that are happy under ``coloring``."""
    return {e for e in hypergraph.edge_ids if is_happy(hypergraph, coloring, e)}


def happy_from_incidence(coloring: Dict[Vertex, Color], incident_of) -> Set:
    """Happy edges of a partial coloring, driven by an incident-edge lookup.

    ``incident_of(v)`` yields the ids of the edges containing ``v``.  Per
    colored vertex the color-census of its incident edges is bumped, then
    every *touched* edge is classified from its census — an edge is happy
    iff some color appears on exactly one of its members, and an edge no
    colored vertex touches cannot be happy.  This single kernel backs
    :func:`happy_edges_incident`, the phase loop's check
    :meth:`repro.core.conflict_graph.ConflictGraph.happy_edges` and
    :class:`repro.core.happiness.HappinessTracker`, so the happiness rule
    cannot diverge between them.
    """
    census: Dict = {}
    for v, c in coloring.items():
        if c is UNCOLORED:
            continue
        for e in incident_of(v):
            counts = census.get(e)
            if counts is None:
                counts = census[e] = {}
            counts[c] = counts.get(c, 0) + 1
    return {e for e, counts in census.items() if 1 in counts.values()}


def happy_edges_incident(hypergraph: Hypergraph, coloring: Dict[Vertex, Color]) -> Set:
    """Return the happy edges by scanning only edges *incident to colored vertices*.

    Equal to :func:`happy_edges` for every input, but the cost is
    ``O(Σ_{v colored} deg(v))`` instead of a full pass over the edge
    family; colored non-vertices are ignored (a partial coloring may
    mention vertices the hypergraph no longer has).
    """
    return happy_from_incidence(
        coloring,
        lambda v: hypergraph.edges_containing(v) if hypergraph.has_vertex(v) else (),
    )


def unhappy_edges(
    hypergraph: Hypergraph,
    coloring: Dict[Vertex, Color],
    happy: Optional[Set] = None,
) -> Set:
    """Return the set of edge ids that are *not* happy under ``coloring``.

    ``happy`` may carry a precomputed :func:`happy_edges` result so callers
    that need both sides of the partition compute the census only once.
    """
    if happy is None:
        happy = happy_edges(hypergraph, coloring)
    return set(hypergraph.edge_ids) - happy


def is_conflict_free(hypergraph: Hypergraph, coloring: Dict[Vertex, Color]) -> bool:
    """Return ``True`` if every hyperedge is happy under ``coloring``.

    The coloring may be partial; only happiness matters.
    """
    return not unhappy_edges(hypergraph, coloring)


def verify_conflict_free_coloring(
    hypergraph: Hypergraph,
    coloring: Dict[Vertex, Color],
    k: Optional[int] = None,
    require_total: bool = False,
) -> None:
    """Raise :class:`ColoringError` unless ``coloring`` is a valid conflict-free coloring.

    Parameters
    ----------
    hypergraph:
        The instance.
    coloring:
        Map from vertices to colors; vertices may be missing or mapped to
        ``UNCOLORED`` unless ``require_total`` is set.
    k:
        When given, the coloring must use at most ``k`` distinct colors.
    require_total:
        When ``True``, every vertex of the hypergraph must receive a color.
    """
    foreign = set(coloring) - hypergraph.vertices
    if foreign:
        raise ColoringError(
            f"coloring mentions non-vertices, e.g. {next(iter(foreign))!r}"
        )
    if require_total:
        missing = {
            v for v in hypergraph.vertices if color_of(coloring, v) is UNCOLORED
        }
        if missing:
            raise ColoringError(
                f"{len(missing)} vertices are uncolored, e.g. {next(iter(missing))!r}"
            )
    if k is not None:
        used = {c for c in coloring.values() if c is not UNCOLORED}
        if len(used) > k:
            raise ColoringError(f"coloring uses {len(used)} colors, more than k = {k}")
    bad = unhappy_edges(hypergraph, coloring, happy=happy_edges_incident(hypergraph, coloring))
    if bad:
        example = next(iter(bad))
        raise ColoringError(
            f"{len(bad)} hyperedges are not happy, e.g. edge {example!r} with members "
            f"{sorted(hypergraph.edge(example), key=repr)!r}"
        )


def colors_used(coloring: Dict[Vertex, Color]) -> Set[Color]:
    """Return the set of real colors used (``UNCOLORED`` excluded)."""
    return {c for c in coloring.values() if c is not UNCOLORED}


def num_colors_used(coloring: Dict[Vertex, Color]) -> int:
    """Return the number of distinct real colors used."""
    return len(colors_used(coloring))
