"""Local simulation of virtual graphs on top of a host network.

The hardness proof of the paper relies on the observation that the
conflict graph ``G_k`` of a hypergraph ``H`` "has polynomially many nodes
and edges and can be simulated locally": every virtual node ``(e, v, c)``
is hosted by the physical node ``v`` of ``H``, and every virtual edge
connects virtual nodes whose hosts are at hop distance at most 2 in the
primal graph of ``H`` (they lie in a common hyperedge, or in two
hyperedges sharing a vertex).  Consequently an ``r``-round LOCAL algorithm
on ``G_k`` can be executed by the hosts with only a constant-factor
blow-up in the radius.

:class:`VirtualGraphEmbedding` makes this argument executable: it records
the host assignment, measures the dilation and verifies its bound, and
converts virtual rounds into host rounds.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.exceptions import ModelError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances

Vertex = Hashable
VirtualVertex = Hashable


class VirtualGraphEmbedding:
    """An embedding of a virtual graph into a host graph.

    Parameters
    ----------
    host_graph:
        The physical network.
    virtual_graph:
        The simulated graph (e.g. the conflict graph ``G_k``).
    host_of:
        Mapping from every virtual vertex to its hosting physical vertex.
    """

    def __init__(
        self,
        host_graph: Graph,
        virtual_graph: Graph,
        host_of: Dict[VirtualVertex, Vertex],
    ) -> None:
        missing = virtual_graph.vertices - set(host_of)
        if missing:
            raise ModelError(
                f"{len(missing)} virtual vertices have no host, e.g. {next(iter(missing))!r}"
            )
        for virtual_vertex, host in host_of.items():
            if host not in host_graph:
                raise ModelError(
                    f"virtual vertex {virtual_vertex!r} is hosted on {host!r}, "
                    "which is not a vertex of the host graph"
                )
        self.host_graph = host_graph
        self.virtual_graph = virtual_graph
        self.host_of = dict(host_of)

    def dilation(self) -> int:
        """Return the maximum host distance spanned by any virtual edge.

        A dilation of ``d`` means one round of a LOCAL algorithm on the
        virtual graph can be simulated in ``d`` rounds on the host graph.
        Virtual edges between virtual vertices sharing a host contribute 0.
        """
        worst = 0
        distance_cache: Dict[Vertex, Dict[Vertex, int]] = {}
        for u, v in self.virtual_graph.edges():
            hu, hv = self.host_of[u], self.host_of[v]
            if hu == hv:
                continue
            if hu not in distance_cache:
                distance_cache[hu] = bfs_distances(self.host_graph, hu)
            dist = distance_cache[hu].get(hv)
            if dist is None:
                raise ModelError(
                    f"virtual edge ({u!r}, {v!r}) spans disconnected hosts "
                    f"{hu!r} and {hv!r}"
                )
            worst = max(worst, dist)
        return worst

    def simulation_rounds(self, virtual_rounds: int) -> int:
        """Rounds needed on the host to simulate ``virtual_rounds`` rounds on the virtual graph.

        One virtual round costs ``max(dilation, 1)`` host rounds (hosts of
        adjacent virtual vertices must exchange the virtual messages).
        """
        if virtual_rounds < 0:
            raise ModelError(f"virtual_rounds must be non-negative, got {virtual_rounds}")
        return virtual_rounds * max(self.dilation(), 1)

    def verify_dilation_bound(self, bound: int) -> None:
        """Raise :class:`ModelError` unless every virtual edge spans host distance ≤ ``bound``."""
        actual = self.dilation()
        if actual > bound:
            raise ModelError(
                f"embedding dilation {actual} exceeds the claimed bound {bound}"
            )


def run_simulated(
    embedding: VirtualGraphEmbedding,
    algorithm_on_virtual,
    seed: Optional[int] = None,
) -> Dict[VirtualVertex, object]:
    """Execute a centralized stand-in for running ``algorithm_on_virtual`` on the virtual graph.

    The function runs ``algorithm_on_virtual(virtual_graph)`` (any callable
    returning a per-virtual-vertex output mapping) and charges the
    simulation cost implied by the embedding; it exists so benchmarks can
    report both the virtual-round complexity and the host-round cost
    without duplicating algorithm code.
    """
    outputs = algorithm_on_virtual(embedding.virtual_graph)
    missing = embedding.virtual_graph.vertices - set(outputs)
    if missing:
        raise ModelError(
            f"virtual algorithm left {len(missing)} virtual vertices without output"
        )
    return outputs
