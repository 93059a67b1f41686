"""Incidence-driven happy-edge tracking: a stateful twin of the engine's happy check.

Only edges incident to a vertex recolored in a phase can become happy (a
phase coloring draws from a phase-private palette, so an edge without
recolored members has no colored member at all under it).
:class:`HappinessTracker` makes that observation stateful: it keeps its
own member snapshot, vertex → incident-edge index and per-edge happiness
state, so committing an independent set ``I_i`` costs
``O(Σ_{v ∈ I_i} deg(v))`` instead of ``O(Σ_e |e|)``.

The tracker is off the reduction's engine path, which runs the same
kernel through :meth:`~repro.core.conflict_graph.ConflictGraph.happy_edges`.
It stays only because ``perfbench/ledger.py`` wraps three of its methods
by name (``happiness.init_s``, ``commit_s`` and ``remove_s``); it can go
once those hooks are retired.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Set

from repro.coloring.conflict_free import happy_from_incidence
from repro.exceptions import ReductionError
from repro.hypergraph.hypergraph import Hypergraph

Vertex = Hashable
EdgeId = Hashable
Color = Hashable


class HappinessTracker:
    """Per-edge happiness state driven by a maintained incidence index.

    Parameters
    ----------
    hypergraph:
        The hypergraph to track.  The tracker takes a structural snapshot
        (member sets and the vertex → incident-edge index) and from then on
        is independent of it: callers that remove edges from the
        hypergraph mirror the removal through :meth:`remove_edges`.

    Attributes
    ----------
    happy:
        The edges marked happy by the last :meth:`commit` calls and not
        yet removed — the per-edge happiness state.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._members: Dict[EdgeId, FrozenSet[Vertex]] = {
            e: members for e, members in hypergraph.edges()
        }
        self._incident: Dict[Vertex, Set[EdgeId]] = {}
        for e, members in self._members.items():
            for v in members:
                self._incident.setdefault(v, set()).add(e)
        self._happy: Set[EdgeId] = set()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def happy(self) -> Set[EdgeId]:
        """The currently marked happy edges (a copy)."""
        return set(self._happy)

    def num_edges(self) -> int:
        """Number of edges the tracker still maintains."""
        return len(self._members)

    def edges_containing(self, v: Vertex) -> Set[EdgeId]:
        """The maintained incident-edge index entry for ``v`` (a copy)."""
        return set(self._incident.get(v, ()))

    # ------------------------------------------------------------------
    # phase protocol
    # ------------------------------------------------------------------
    def commit(self, coloring: Dict[Vertex, Color]) -> Set[EdgeId]:
        """Re-check only the edges incident to the vertices of ``coloring``.

        Returns the edges that are happy under ``coloring`` (treated as a
        phase-private partial coloring: an edge is happy iff some color
        appears on exactly one of its members) and records them in
        :attr:`happy`.  Cost is ``O(Σ_{v colored} deg(v))``; edges not
        incident to a colored vertex are never visited — they cannot be
        happy under a coloring that does not touch them.
        """
        incident = self._incident
        newly = happy_from_incidence(coloring, lambda v: incident.get(v, ()))
        self._happy |= newly
        return newly

    def remove_edges(self, edge_ids: Iterable[EdgeId]) -> None:
        """Forget the given edges, in time proportional to the deleted part.

        Duplicate ids in the batch are deduplicated (mirroring the
        ``ConflictGraph.remove_hyperedges`` contract), unknown ids raise
        :class:`ReductionError` before any state is modified, and removed
        edges leave both the incidence index and the happiness state.
        """
        ids = list(dict.fromkeys(edge_ids))
        unknown = [e for e in ids if e not in self._members]
        if unknown:
            raise ReductionError(
                f"edges not tracked: {sorted(unknown, key=repr)!r}"
            )
        for e in ids:
            for v in self._members.pop(e):
                bucket = self._incident[v]
                bucket.discard(e)
                if not bucket:
                    del self._incident[v]
            self._happy.discard(e)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HappinessTracker(edges={len(self._members)}, "
            f"happy={len(self._happy)})"
        )
