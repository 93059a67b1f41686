"""The SLOCAL execution engine.

An SLOCAL algorithm with locality ``r`` processes the nodes of the network
graph one by one, in an arbitrary order.  When node ``v`` is processed it
may inspect the current state of its ``r``-hop neighborhood (topology,
identifiers, and the outputs fixed so far) and must then fix its own
output, which may carry any auxiliary state for nodes processed later.  The class :class:`SLOCALEngine` executes such algorithms
and accounts for the locality actually used.

An algorithm is given either as

* a callable ``rule(view, state) -> output`` together with a declared
  ``locality`` — ``view`` is a :class:`~repro.slocal.view.LocalView`
  restricted to the declared radius and ``state`` is the
  :class:`~repro.slocal.state.NodeState` of the processed node — or
* a subclass of :class:`SLOCALAlgorithm` overriding :meth:`SLOCALAlgorithm.process`.

The engine *enforces* the declared locality: reads outside the radius
raise :class:`~repro.exceptions.LocalityViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.exceptions import ModelError
from repro.graphs.graph import Graph
from repro.slocal.orderings import sorted_order, validate_order
from repro.slocal.state import NodeState, StateMap
from repro.slocal.view import LocalView

Vertex = Hashable
Rule = Callable[[LocalView, NodeState], Any]


class SLOCALAlgorithm:
    """Base class for SLOCAL algorithms.

    Subclasses set :attr:`locality` and implement :meth:`process`.
    """

    #: The locality (radius) r of the algorithm.
    locality: int = 1

    #: Human-readable name used in reports.
    name: str = "slocal-algorithm"

    def process(self, view: LocalView, state: NodeState) -> Any:
        """Compute the output of ``view.center`` from its restricted view.

        Must be overridden by subclasses.
        """
        raise NotImplementedError

    def finalize(self, outputs: Dict[Vertex, Any]) -> Dict[Vertex, Any]:
        """Optional post-processing hook applied to the full output map.

        The default implementation returns the outputs unchanged.  This
        hook exists purely for presentation (e.g. renaming labels); it must
        not be used to perform non-local computation that changes the
        solution, and the engine calls it exactly once after all nodes have
        been processed.
        """
        return outputs


@dataclass
class SLOCALResult:
    """The result of one SLOCAL execution.

    Attributes
    ----------
    outputs:
        Mapping from every vertex to its output.
    locality:
        The locality the algorithm declared (and was restricted to).
    order:
        The processing order that was used.
    ball_sizes:
        For each vertex, the number of vertices in the ball it inspected;
        useful to report the work/volume of an execution.
    """

    outputs: Dict[Vertex, Any]
    locality: int
    order: List[Vertex]
    ball_sizes: Dict[Vertex, int] = field(default_factory=dict)


class SLOCALEngine:
    """Executes SLOCAL algorithms on a network graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def run(
        self,
        algorithm,
        order: Optional[Sequence[Vertex]] = None,
        locality: Optional[int] = None,
    ) -> SLOCALResult:
        """Run ``algorithm`` over the graph and return an :class:`SLOCALResult`.

        Parameters
        ----------
        algorithm:
            Either an :class:`SLOCALAlgorithm` instance or a callable
            ``rule(view, state) -> output``.
        order:
            Processing order; defaults to the deterministic sorted order.
            Any permutation of the vertex set is accepted — correctness of
            an SLOCAL algorithm must not depend on the order.
        locality:
            Required when ``algorithm`` is a bare callable; ignored (the
            declared :attr:`SLOCALAlgorithm.locality` wins) otherwise.
        """
        if isinstance(algorithm, SLOCALAlgorithm):
            rule: Rule = algorithm.process
            radius = algorithm.locality
            finalize = algorithm.finalize
        else:
            if locality is None:
                raise ModelError("a bare rule requires an explicit locality")
            rule = algorithm
            radius = locality
            finalize = lambda outputs: outputs  # noqa: E731 - trivial default hook
        if radius < 0:
            raise ModelError(f"locality must be non-negative, got {radius}")

        if order is None:
            order_list = sorted_order(self.graph)
        else:
            order_list = validate_order(self.graph, order)

        state = StateMap(self.graph.vertices)
        ball_sizes: Dict[Vertex, int] = {}
        for v in order_list:
            view = LocalView(self.graph, state, v, radius)
            ball_sizes[v] = len(view.vertices)
            node_state = state[v]
            output = rule(view, node_state)
            node_state.output = output
            node_state.processed = True

        outputs = finalize(state.outputs())
        if set(outputs) != self.graph.vertices:
            raise ModelError("finalize() must preserve the set of output vertices")
        return SLOCALResult(
            outputs=outputs,
            locality=radius,
            order=order_list,
            ball_sizes=ball_sizes,
        )
