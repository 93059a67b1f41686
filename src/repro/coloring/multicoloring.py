"""Conflict-free *multi*colorings: each vertex may hold a set of colors.

The target problem of the paper's reduction (Theorem 1.2) is conflict-free
multicoloring: every vertex is assigned a non-empty subset of colors and
every hyperedge must contain a vertex with a color that no other vertex of
the edge has (in any of its color sets).  The reduction of Theorem 1.1
produces a multicoloring naturally — each phase contributes at most one
color per vertex, drawn from a phase-private palette.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set

from repro.exceptions import ColoringError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable
Color = Hashable
ColorSet = FrozenSet[Color]


class Multicoloring:
    """A partial assignment of color *sets* to vertices.

    The class is a thin mutable wrapper over ``Dict[Vertex, Set[Color]]``
    with the operations the reduction needs: adding one color to a vertex,
    merging phase colorings, and conflict-freeness checks.
    """

    def __init__(self, assignment: Optional[Dict[Vertex, Iterable[Color]]] = None) -> None:
        self._colors: Dict[Vertex, Set[Color]] = {}
        if assignment:
            for v, colors in assignment.items():
                for c in colors:
                    self.add_color(v, c)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_color(self, vertex: Vertex, color: Color) -> None:
        """Give ``vertex`` the additional color ``color``."""
        if color is None:
            raise ColoringError("None is reserved for 'uncolored' and cannot be assigned")
        self._colors.setdefault(vertex, set()).add(color)

    def merge_single_coloring(self, coloring: Dict[Vertex, Color]) -> None:
        """Merge a partial single-color coloring (phase output) into this multicoloring."""
        for v, c in coloring.items():
            if c is not None:
                self.add_color(v, c)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def colors_of(self, vertex: Vertex) -> Set[Color]:
        """Return the colors of ``vertex`` (empty set if uncolored)."""
        return set(self._colors.get(vertex, set()))

    def colored_vertices(self) -> Set[Vertex]:
        """Return the vertices holding at least one color."""
        return {v for v, cs in self._colors.items() if cs}

    def all_colors(self) -> Set[Color]:
        """Return every color used by some vertex."""
        result: Set[Color] = set()
        for cs in self._colors.values():
            result |= cs
        return result

    def num_colors(self) -> int:
        """Return the total number of distinct colors used."""
        return len(self.all_colors())

    def as_dict(self) -> Dict[Vertex, FrozenSet[Color]]:
        """Return an immutable snapshot of the assignment."""
        return {v: frozenset(cs) for v, cs in self._colors.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multicoloring):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Multicoloring(vertices={len(self._colors)}, "
            f"colors={self.num_colors()})"
        )


def edge_color_census(
    hypergraph: Hypergraph, multicoloring: Multicoloring, edge_id
) -> Dict[Color, int]:
    """Count, for hyperedge ``edge_id``, how many member vertices hold each color."""
    counts: Dict[Color, int] = {}
    for v in hypergraph.edge(edge_id):
        for c in multicoloring.colors_of(v):
            counts[c] = counts.get(c, 0) + 1
    return counts


def is_edge_happy(hypergraph: Hypergraph, multicoloring: Multicoloring, edge_id) -> bool:
    """Return ``True`` if some color appears on exactly one vertex of the edge."""
    return any(count == 1 for count in edge_color_census(hypergraph, multicoloring, edge_id).values())


def happy_edges(hypergraph: Hypergraph, multicoloring: Multicoloring) -> Set:
    """Return the ids of edges happy under the multicoloring."""
    return {e for e in hypergraph.edge_ids if is_edge_happy(hypergraph, multicoloring, e)}


def unhappy_edges(hypergraph: Hypergraph, multicoloring: Multicoloring) -> Set:
    """Return the ids of edges *not* happy under the multicoloring."""
    return set(hypergraph.edge_ids) - happy_edges(hypergraph, multicoloring)


def verify_conflict_free_multicoloring(
    hypergraph: Hypergraph,
    multicoloring: Multicoloring,
    max_total_colors: Optional[int] = None,
) -> None:
    """Raise :class:`ColoringError` unless the multicoloring is conflict-free.

    Parameters
    ----------
    max_total_colors:
        Optional bound on the total number of distinct colors (the
        reduction's budget is ``k·ρ``).
    """
    foreign = multicoloring.colored_vertices() - hypergraph.vertices
    if foreign:
        raise ColoringError(
            f"multicoloring mentions non-vertices, e.g. {next(iter(foreign))!r}"
        )
    if max_total_colors is not None and multicoloring.num_colors() > max_total_colors:
        raise ColoringError(
            f"multicoloring uses {multicoloring.num_colors()} colors, "
            f"exceeding the budget {max_total_colors}"
        )
    unhappy = unhappy_edges(hypergraph, multicoloring)
    if unhappy:
        example = next(iter(unhappy))
        raise ColoringError(
            f"{len(unhappy)} hyperedges are not happy under the multicoloring, "
            f"e.g. edge {example!r}"
        )


def single_coloring_as_multicoloring(coloring: Dict[Vertex, Color]) -> Multicoloring:
    """Lift a (partial) single-color coloring to a multicoloring."""
    mc = Multicoloring()
    mc.merge_single_coloring(coloring)
    return mc
