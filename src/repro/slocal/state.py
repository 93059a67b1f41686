"""Per-node persistent state used by the SLOCAL execution engine.

In the SLOCAL model a node, when processed, may write information into its
own state; nodes processed later can read that state (within their
locality radius).  :class:`NodeState` holds the node's final output, which
may be any object and so carries whatever later nodes read through
:meth:`~repro.slocal.view.LocalView.output_of`, and records whether the
node has been processed yet so that the engine can enforce the model's
sequencing rules.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

from repro.exceptions import ModelError

Vertex = Hashable


class NodeState:
    """The persistent state of a single node in an SLOCAL execution.

    Attributes
    ----------
    vertex:
        The node this state belongs to.
    processed:
        Whether the node has already been processed by the engine.
    output:
        The node's final output (``None`` until processed, unless the
        algorithm explicitly outputs ``None``).
    """

    def __init__(self, vertex: Vertex) -> None:
        self.vertex = vertex
        self.processed = False
        self.output: Any = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "processed" if self.processed else "pending"
        return f"NodeState({self.vertex!r}, {status}, output={self.output!r})"


class StateMap:
    """The collection of all node states in one SLOCAL execution."""

    def __init__(self, vertices) -> None:
        self._states: Dict[Vertex, NodeState] = {v: NodeState(v) for v in vertices}

    def __getitem__(self, vertex: Vertex) -> NodeState:
        if vertex not in self._states:
            raise ModelError(f"no state for vertex {vertex!r}")
        return self._states[vertex]

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._states

    def __iter__(self):
        return iter(self._states)

    def outputs(self) -> Dict[Vertex, Any]:
        """Return the mapping ``vertex -> output`` over all processed nodes."""
        return {v: s.output for v, s in self._states.items() if s.processed}
