"""Failure-injection tests: the reduction must reject misbehaving oracles loudly.

The reduction consumes an untrusted λ-approximation oracle.  These tests
feed it oracles that violate the contract in different ways — returning
non-independent sets, foreign vertices, empty sets, or nonsense objects —
and check that the error surfaces as a library exception instead of a
silently wrong multicoloring.
"""

from __future__ import annotations

import pytest

from repro.core import ConflictFreeMulticoloringViaMaxIS, ConflictGraph, ConflictVertex
from repro.exceptions import IndependenceError, ReductionError, ReproError
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator


@pytest.fixture
def instance():
    hypergraph, _ = colorable_almost_uniform_hypergraph(n=18, m=10, k=2, seed=71)
    return hypergraph


def _reduction(oracle):
    return ConflictFreeMulticoloringViaMaxIS(k=2, approximator=oracle, lam=4.0)


class TestMisbehavingOracles:
    def test_non_independent_output_rejected(self, instance):
        def bad_oracle(graph):
            # Return an entire E_edge clique: maximally dependent.
            some_vertex = next(iter(graph.vertices))
            return {some_vertex} | graph.neighbors(some_vertex)

        with pytest.raises(IndependenceError):
            _reduction(bad_oracle).run(instance)

    def test_foreign_vertices_rejected(self, instance):
        def foreign_oracle(graph):
            return {ConflictVertex(edge="ghost", vertex="ghost", color=1)}

        with pytest.raises(ReproError):
            _reduction(foreign_oracle).run(instance)

    def test_empty_output_rejected(self, instance):
        with pytest.raises(ReductionError):
            _reduction(lambda graph: set()).run(instance)

    def test_non_triple_output_rejected(self, instance):
        with pytest.raises(ReproError):
            _reduction(lambda graph: {"not-a-triple"}).run(instance)

    def test_oracle_exceptions_propagate(self, instance):
        def exploding_oracle(graph):
            raise RuntimeError("oracle crashed")

        with pytest.raises(RuntimeError):
            _reduction(exploding_oracle).run(instance)

    def test_partial_progress_is_not_committed_on_failure(self, instance):
        calls = {"count": 0}

        def flaky_oracle(graph):
            calls["count"] += 1
            if calls["count"] == 1:
                # behave correctly once so phase 1 succeeds …
                return get_approximator("luby-best-of-5")(graph)
            raise RuntimeError("oracle crashed in phase 2")

        weak_first_phase = ConflictFreeMulticoloringViaMaxIS(
            k=2,
            approximator=lambda g: set(sorted(flaky_oracle(g), key=repr)[:2]),
            lam=8.0,
        )
        with pytest.raises(RuntimeError):
            weak_first_phase.run(instance)


class TestEngineGuards:
    def test_fewer_happy_edges_than_triples_violates_lemma_21b(self, monkeypatch):
        # Vertex-disjoint edges: each selected triple makes exactly its own edge happy.
        hypergraph = Hypergraph(edges=[[0, 1], [2, 3], [4, 5]])
        happy_edges = ConflictGraph.happy_edges

        def drop_one(self, coloring):
            happy = happy_edges(self, coloring)
            happy.discard(min(happy, key=repr))
            return happy

        monkeypatch.setattr(ConflictGraph, "happy_edges", drop_one)
        with pytest.raises(ReductionError, match=r"Lemma 2.1\(b\) is violated"):
            _reduction(get_approximator("greedy-first-fit")).run(hypergraph)


class TestHonestOracleStillWorks:
    def test_honest_run_after_failures(self, instance):
        result = _reduction(get_approximator("greedy-min-degree")).run(instance)
        assert result.num_phases >= 1
        assert result.total_colors <= result.color_bound
