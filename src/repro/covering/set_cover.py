"""Distributed set cover: instance model, verification, greedy approximation.

Set cover is the second covering problem [GHK18] placed in the P-SLOCAL
completeness landscape the paper's result joins.  The instance model here
is deliberately simple (a universe plus identified subsets); it doubles as
a bridge between the library's graph and hypergraph substrates —
domination is set cover with closed neighborhoods, and hypergraph vertex
cover is set cover by incidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Set

from repro.exceptions import VerificationError
from repro.graphs.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph

Element = Hashable
SetId = Hashable


@dataclass
class SetCoverInstance:
    """A set-cover instance: a universe and a family of identified subsets.

    Attributes
    ----------
    universe:
        The elements that must be covered.
    sets:
        Mapping from set id to the subset of the universe it covers.
    """

    universe: Set[Element] = field(default_factory=set)
    sets: Dict[SetId, FrozenSet[Element]] = field(default_factory=dict)

    def add_set(self, set_id: SetId, elements: Iterable[Element]) -> None:
        """Register (or extend the universe with) a named subset."""
        members = frozenset(elements)
        if set_id in self.sets:
            raise VerificationError(f"set id {set_id!r} already in use")
        self.sets[set_id] = members
        self.universe |= members

    def coverable(self) -> bool:
        """Whether the union of all sets covers the whole universe."""
        covered: Set[Element] = set()
        for members in self.sets.values():
            covered |= members
        return self.universe <= covered


def verify_set_cover(instance: SetCoverInstance, chosen: Iterable[SetId]) -> None:
    """Raise :class:`VerificationError` unless ``chosen`` covers the universe."""
    chosen_ids = list(chosen)
    covered: Set[Element] = set()
    for set_id in chosen_ids:
        if set_id not in instance.sets:
            raise VerificationError(f"unknown set id {set_id!r}")
        covered |= instance.sets[set_id]
    missing = instance.universe - covered
    if missing:
        raise VerificationError(
            f"{len(missing)} elements uncovered, e.g. {next(iter(missing))!r}"
        )


def greedy_set_cover(instance: SetCoverInstance) -> List[SetId]:
    """Greedy set cover: pick the set covering the most uncovered elements.

    Achieves the ``H(d)`` approximation factor where ``d`` is the largest
    set size.  Raises :class:`VerificationError` if the instance is not
    coverable at all.
    """
    if not instance.coverable():
        raise VerificationError("the union of all sets does not cover the universe")
    uncovered = set(instance.universe)
    chosen: List[SetId] = []
    while uncovered:
        best = max(
            instance.sets,
            key=lambda sid: (len(instance.sets[sid] & uncovered), repr(sid)),
        )
        gain = instance.sets[best] & uncovered
        if not gain:
            raise VerificationError("no set makes progress although elements remain uncovered")
        chosen.append(best)
        uncovered -= gain
    verify_set_cover(instance, chosen)
    return chosen


def exact_minimum_set_cover(instance: SetCoverInstance, limit: int = 20) -> List[SetId]:
    """Exact minimum set cover by branch and bound (ground truth for tests).

    Parameters
    ----------
    limit:
        Refuse instances with more than this many sets.
    """
    if len(instance.sets) > limit:
        raise VerificationError(
            f"exact set cover refused an instance with {len(instance.sets)} sets (limit {limit})"
        )
    if not instance.coverable():
        raise VerificationError("the union of all sets does not cover the universe")

    set_ids = sorted(instance.sets, key=repr)
    best: List[SetId] = list(set_ids)

    def search(chosen: List[SetId], uncovered: FrozenSet[Element]) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not uncovered:
            best = list(chosen)
            return
        target = min(uncovered, key=repr)
        for set_id in set_ids:
            if target in instance.sets[set_id]:
                search(chosen + [set_id], uncovered - instance.sets[set_id])

    search([], frozenset(instance.universe))
    verify_set_cover(instance, best)
    return best


def set_cover_optimum(instance: SetCoverInstance, limit: int = 20) -> int:
    """Return the optimum cover size."""
    return len(exact_minimum_set_cover(instance, limit=limit))


# ----------------------------------------------------------------------
# Bridges to the other substrates
# ----------------------------------------------------------------------
def dominating_set_as_set_cover(graph: Graph) -> SetCoverInstance:
    """Encode minimum dominating set as set cover (sets = closed neighborhoods)."""
    instance = SetCoverInstance(universe=set(graph.vertices))
    for v in sorted(graph.vertices, key=repr):
        instance.add_set(v, graph.neighbors(v) | {v})
    return instance


def hypergraph_vertex_cover_as_set_cover(hypergraph: Hypergraph) -> SetCoverInstance:
    """Encode hypergraph vertex cover as set cover (sets = incidences of each vertex)."""
    instance = SetCoverInstance(universe=set(hypergraph.edge_ids))
    for v in sorted(hypergraph.vertices, key=repr):
        incident = hypergraph.edges_containing(v)
        if incident:
            instance.add_set(v, incident)
    return instance


def harmonic_number(d: int) -> float:
    """Return ``H(d) = 1 + 1/2 + … + 1/d`` (0 for ``d ≤ 0``)."""
    if d <= 0:
        return 0.0
    return sum(1.0 / i for i in range(1, d + 1))
