"""Tests for the synchronous LOCAL network simulator and its message plumbing."""

from __future__ import annotations

import pytest

from repro.exceptions import ModelError
from repro.graphs import Graph, cycle_graph, path_graph
from repro.local_model import Inbox, LocalNetwork, LocalNodeAlgorithm, Message
from repro.local_model.node import LocalNode


class _FloodMax(LocalNodeAlgorithm):
    """Each node learns the maximum vertex id in its connected component.

    Classic flooding: every round a node broadcasts the largest id it has
    seen; it terminates once a full round brings no improvement.  Serves as
    an algorithm whose round complexity equals (diameter + O(1)).
    """

    name = "flood-max"

    def init(self, node: LocalNode):
        node.memory["best"] = node.vertex
        return {u: node.vertex for u in node.neighbors}

    def round(self, node: LocalNode, round_number: int, inbox: Inbox):
        best_seen = max([node.memory["best"]] + [inbox.from_neighbor(u) for u in inbox.messages])
        if best_seen == node.memory["best"] and round_number > 1:
            node.terminate(node.memory["best"])
            return {}
        node.memory["best"] = best_seen
        return {u: best_seen for u in node.neighbors}


class _Misbehaving(LocalNodeAlgorithm):
    """Tries to send a message to a non-neighbor (must be rejected)."""

    def init(self, node: LocalNode):
        return {"definitely-not-a-neighbor": "hello"}

    def round(self, node, round_number, inbox):
        node.terminate(None)
        return {}


class _NeverTerminates(LocalNodeAlgorithm):
    """Keeps chattering forever (used to test the round limit)."""

    def init(self, node: LocalNode):
        return {}

    def round(self, node, round_number, inbox):
        return {u: round_number for u in node.neighbors}


class TestMessagePrimitives:
    def test_message_fields(self):
        msg = Message(sender=1, receiver=2, round_sent=0, payload="x")
        assert msg.sender == 1 and msg.receiver == 2 and msg.payload == "x"

    def test_inbox_lookup(self):
        msg = Message(sender=1, receiver=2, round_sent=3, payload=42)
        inbox = Inbox(messages={1: msg})
        assert inbox.from_neighbor(1) == 42
        assert inbox.from_neighbor(9, default="none") == "none"
        assert len(inbox) == 1

    def test_node_terminate_twice_raises(self):
        node = LocalNode(vertex=1, neighbors=set(), n_known=1, random_seed=0)
        node.terminate("done")
        with pytest.raises(ModelError):
            node.terminate("again")


class TestNetwork:
    def test_flooding_finds_component_maximum(self):
        g = path_graph(6)
        result = LocalNetwork(g).run(_FloodMax())
        assert result.terminated
        assert all(out == 5 for out in result.outputs.values())

    def test_flooding_respects_components(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        result = LocalNetwork(g).run(_FloodMax())
        assert result.outputs[0] == 1 and result.outputs[1] == 1
        assert result.outputs[2] == 3 and result.outputs[3] == 3

    def test_rounds_scale_with_diameter(self):
        short = LocalNetwork(path_graph(4)).run(_FloodMax())
        long = LocalNetwork(path_graph(16)).run(_FloodMax())
        assert long.rounds > short.rounds

    def test_message_counter_positive(self):
        result = LocalNetwork(cycle_graph(5)).run(_FloodMax())
        assert result.messages_sent > 0

    def test_non_neighbor_messages_rejected(self):
        with pytest.raises(ModelError):
            LocalNetwork(path_graph(3)).run(_Misbehaving())

    def test_round_limit_stops_nonterminating_algorithms(self):
        result = LocalNetwork(cycle_graph(4)).run(_NeverTerminates(), max_rounds=7)
        assert not result.terminated
        assert result.rounds == 7

    def test_invalid_round_limit(self):
        with pytest.raises(ModelError):
            LocalNetwork(path_graph(2)).run(_FloodMax(), max_rounds=0)

    def test_empty_graph_runs_trivially(self):
        result = LocalNetwork(Graph()).run(_FloodMax())
        assert result.outputs == {}
        assert result.terminated

    def test_per_round_active_is_monotone_nonincreasing_for_floodmax(self):
        result = LocalNetwork(path_graph(8)).run(_FloodMax())
        active = result.per_round_active
        assert all(a >= b for a, b in zip(active, active[1:]))
