"""The λ-approximation oracle interface consumed by the paper's reduction.

The hardness proof of Theorem 1.1 is parameterized by *any* algorithm that
computes a λ-approximate maximum independent set: the reduction runs
``ρ = λ·ln(m) + 1`` phases and calls the approximator once per phase on
the conflict graph of the surviving hyperedges.  :class:`MaxISApproximator`
is the corresponding interface; the registry maps names to the concrete
algorithms implemented in this package so that benchmarks can sweep over
them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.exceptions import ApproximationError
from repro.graphs.graph import Graph
from repro.graphs.independent_sets import verify_independent_ids
from repro.graphs.indexed import IndexedGraph, freeze_sorted


@dataclass(frozen=True)
class MaxISApproximator:
    """A named maximum-independent-set approximation algorithm: one id kernel.

    Every approximator is an id kernel, ``solve_ids``, and :meth:`__call__`
    is the one place that derives a label answer from it.  A custom
    algorithm written against labels needs no approximator: the reduction
    engine takes any plain callable from a mutable :class:`Graph` to an
    independent set of its vertices as its oracle.

    Attributes
    ----------
    name:
        Registry key / display name.
    solve_ids:
        ``solve_ids(graph) -> iterable of ids``: the algorithm on a frozen
        :class:`~repro.graphs.indexed.IndexedGraph` or alive-mask subgraph
        view interned in ``repr`` order, answering with the ids of an
        independent set.  The reduction's phase engine calls it through
        ``__call__(view, ids=True)`` on the conflict graph, whose ids are
        laid out in ``repr`` order.
    guarantee:
        Callable mapping a graph to the approximation factor λ the
        algorithm guarantees on that graph (``None`` when no worst-case
        guarantee is claimed — e.g. purely heuristic baselines).
    description:
        One-line description used in benchmark tables.
    """

    name: str
    solve_ids: Callable[[IndexedGraph], Iterable[int]]
    guarantee: Optional[Callable[[Graph], float]] = None
    description: str = ""

    def __call__(self, graph, ids: bool = False):
        """Run the kernel and verify that its output is independent.

        The kernel runs on ``freeze_sorted(graph)`` (a frozen graph or view
        passes through) and its ids are checked on masks.  By default they
        are named by their labels and the answer is a set of vertices.
        With ``ids=True``, ``graph`` must be an
        :class:`~repro.graphs.indexed.IndexedGraph` or view interned in
        ``repr`` order, and the answer is the kernel's list of ids in
        ascending order, built without a label.

        Raises
        ------
        IndependenceError
            If the answer names a vertex outside ``graph``, repeats one, or
            holds two adjacent vertices.
        ApproximationError
            If the answer is empty although ``graph`` is not.
        """
        frozen = freeze_sorted(graph)
        result = sorted(self.solve_ids(frozen))
        verify_independent_ids(frozen, result)
        if graph.num_vertices() > 0 and not result:
            raise ApproximationError(
                f"approximator {self.name!r} returned an empty set on a non-empty graph; "
                "no finite approximation factor can hold"
            )
        return result if ids else {frozen.label(i) for i in result}


_REGISTRY: Dict[str, MaxISApproximator] = {}


def register_approximator(approximator: MaxISApproximator) -> MaxISApproximator:
    """Add ``approximator`` to the global registry (overwriting by name is an error)."""
    if approximator.name in _REGISTRY:
        raise ApproximationError(f"approximator {approximator.name!r} already registered")
    _REGISTRY[approximator.name] = approximator
    return approximator


def get_approximator(name: str) -> MaxISApproximator:
    """Look up a registered approximator by name."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise ApproximationError(
            f"unknown approximator {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def available_approximators() -> Dict[str, MaxISApproximator]:
    """Return a copy of the registry (name → approximator)."""
    _ensure_builtins()
    return dict(_REGISTRY)


def _ensure_builtins() -> None:
    """Register the built-in algorithms on first use (import-cycle-free lazy init)."""
    if _REGISTRY:
        return
    from repro.maxis import builtin  # noqa: F401  (importing registers the algorithms)


def capped_oracle(base_name: str, lam: float) -> MaxISApproximator:
    """A genuinely λ-approximate oracle: the base oracle capped to ``⌈|I|/λ⌉`` triples.

    The full-strength registry oracles solve the colorable workloads in
    one or two phases, where an incremental engine cannot beat a rebuild
    by definition (there is nothing to reuse).  Capping the returned
    independent set to a ``1/λ`` fraction (any subset of an independent
    set is independent, so Lemma 2.1(b) still holds per selected triple)
    emulates an oracle that only achieves its worst-case guarantee — the
    regime the paper's analysis is about, with ``ρ = λ·ln(m) + 1`` phases.
    The kept triples are the first ``⌈|I|/λ⌉`` by ``repr``: the capped
    oracle is an id kernel that keeps the base kernel's smallest ids, which
    on a graph interned in ``repr`` order are those triples.
    The campaign runtime's ``capped:<name>`` oracles and the reduction
    benchmark use it; its name is ``<base_name>@1/<λ>``.
    """
    base = get_approximator(base_name)

    def cap(full: List[int]) -> List[int]:
        return full[:max(1, math.ceil(len(full) / lam))]

    return MaxISApproximator(
        name=f"{base_name}@1/{lam:g}",
        solve_ids=lambda graph: cap(sorted(base.solve_ids(graph))),
        description=f"{base_name} capped to a 1/{lam:g} fraction (worst-case λ regime).",
    )
