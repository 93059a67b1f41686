"""Tests for the Lemma 2.1 correspondence between colorings and independent sets."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.correspondence as correspondence
from repro.core import (
    ConflictGraph,
    ConflictVertex,
    coloring_to_independent_set,
    happy_edges_of_independent_set,
    independent_set_to_coloring,
    maximum_independent_set_size_bound,
    verify_lemma_21a,
    verify_lemma_21b,
)
from repro.exceptions import ColoringError, IndependenceError, ReductionError
from repro.graphs import independence_number, verify_independent_set
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import get_approximator

from tests.conftest import colorable_hypergraphs


@pytest.fixture
def instance():
    hypergraph, planted = colorable_almost_uniform_hypergraph(n=20, m=10, k=3, seed=17)
    return hypergraph, planted, ConflictGraph(hypergraph, 3)


class TestLemma21a:
    def test_induced_set_has_size_m_and_is_independent(self, instance, bench_family):
        hypergraph, planted, cg = instance
        cases = [(hypergraph, planted, cg)] + [
            (h, coloring, ConflictGraph(h, k)) for _, h, coloring, k in bench_family
        ]
        for hypergraph, planted, cg in cases:
            witness = verify_lemma_21a(cg, planted)
            assert len(witness) == hypergraph.num_edges()
            verify_independent_set(cg.graph, witness)

    def test_one_triple_per_hyperedge(self, instance):
        hypergraph, planted, cg = instance
        witness = coloring_to_independent_set(cg, planted)
        assert {t.edge for t in witness} == set(hypergraph.edge_ids)

    def test_triples_respect_the_coloring(self, instance):
        _, planted, cg = instance
        for t in coloring_to_independent_set(cg, planted):
            assert planted[t.vertex] == t.color

    def test_non_conflict_free_coloring_rejected_in_strict_mode(self):
        h = Hypergraph(edges=[[0, 1]])
        cg = ConflictGraph(h, 1)
        with pytest.raises(ColoringError):
            coloring_to_independent_set(cg, {0: 1, 1: 1})

    def test_partial_mode_skips_unhappy_edges(self):
        h = Hypergraph(edges=[[0, 1], [2, 3]])
        cg = ConflictGraph(h, 1)
        witness = coloring_to_independent_set(
            cg, {0: 1, 1: 1, 2: 1}, require_conflict_free=False
        )
        assert {t.edge for t in witness} == {1}

    def test_out_of_palette_color_rejected(self):
        h = Hypergraph(edges=[[0, 1]])
        cg = ConflictGraph(h, 1)
        with pytest.raises(ColoringError):
            coloring_to_independent_set(cg, {0: 5, 1: 1})

    def test_maximum_size_bound_is_m(self, instance):
        hypergraph, _, cg = instance
        assert maximum_independent_set_size_bound(cg) == hypergraph.num_edges()

    def test_no_independent_set_exceeds_m_on_small_instance(self):
        for n, m, seed in [(8, 4, 23), (18, 9, 77)]:
            hypergraph, planted = colorable_almost_uniform_hypergraph(n=n, m=m, k=2, seed=seed)
            cg = ConflictGraph(hypergraph, 2)
            alpha = independence_number(cg.graph)
            assert alpha == hypergraph.num_edges() == len(verify_lemma_21a(cg, planted))

    @given(colorable_hypergraphs(max_n=14, max_m=6, max_k=3))
    @settings(max_examples=20, deadline=None)
    def test_lemma_21a_property(self, triple):
        hypergraph, planted, k = triple
        cg = ConflictGraph(hypergraph, k)
        witness = verify_lemma_21a(cg, planted)
        assert len(witness) == hypergraph.num_edges()


class TestLemma21b:
    def test_induced_coloring_well_defined(self, instance):
        _, _, cg = instance
        approx = get_approximator("greedy-min-degree")
        independent_set = approx(cg.graph)
        coloring = independent_set_to_coloring(cg, independent_set)
        # One color per vertex and all colors within the palette.
        for v, c in coloring.items():
            assert 1 <= c <= cg.k

    def test_happy_edges_at_least_independent_set_size(self, instance, bench_family):
        graphs = [instance[2]] + [ConflictGraph(h, k) for _, h, _, k in bench_family[:3]]
        for cg in graphs:
            for name in ("greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover"):
                independent_set = get_approximator(name)(cg.graph)
                happy = verify_lemma_21b(cg, independent_set)
                assert len(happy) >= len(independent_set)

    def test_selected_edges_are_happy(self, instance):
        _, _, cg = instance
        independent_set = get_approximator("greedy-min-degree")(cg.graph)
        happy = happy_edges_of_independent_set(cg, independent_set)
        assert {t.edge for t in independent_set} <= happy

    def test_empty_independent_set_gives_empty_coloring(self, instance):
        _, _, cg = instance
        assert independent_set_to_coloring(cg, set()) == {}
        assert happy_edges_of_independent_set(cg, set()) == set()

    def test_non_independent_input_rejected(self, instance):
        _, _, cg = instance
        triples = sorted(cg.graph.vertices, key=repr)
        a = triples[0]
        neighbor = next(iter(cg.graph.neighbors(a)))
        ids = [cg.frozen().index_of(a), cg.frozen().index_of(neighbor)]
        for candidate in ({a, neighbor}, ids):
            with pytest.raises(IndependenceError):
                independent_set_to_coloring(cg, candidate)

    def test_non_triple_input_rejected(self, instance):
        _, _, cg = instance
        with pytest.raises(ReductionError):
            independent_set_to_coloring(cg, {"not-a-triple"})

    @given(colorable_hypergraphs(max_n=14, max_m=6, max_k=3),
           st.sampled_from(["greedy-min-degree", "luby-best-of-5"]))
    @settings(max_examples=20, deadline=None)
    def test_lemma_21b_property(self, triple, approximator_name):
        hypergraph, _, k = triple
        cg = ConflictGraph(hypergraph, k)
        if cg.graph.num_vertices() == 0:
            return
        independent_set = get_approximator(approximator_name)(cg.graph)
        happy = verify_lemma_21b(cg, independent_set)
        assert len(happy) >= len(independent_set)


class TestCorrectnessGuards:
    """The Lemma 2.1 checks fire when a patched step breaks what the lemma proves."""

    def test_two_colors_on_one_vertex_is_an_e_vertex_violation(self, instance, monkeypatch):
        _, _, cg = instance
        e = cg.hypergraph.edge_ids[0]
        v = min(cg.hypergraph.edge(e), key=repr)
        monkeypatch.setattr(correspondence, "verify_independent_set", lambda graph, triples: None)
        with pytest.raises(ReductionError, match="E_vertex"):
            independent_set_to_coloring(cg, {ConflictVertex(e, v, 1), ConflictVertex(e, v, 2)})

    def test_lemma_21a_witness_must_have_size_m(self, instance, monkeypatch):
        _, planted, cg = instance
        build = correspondence.coloring_to_independent_set

        def one_short(*args, **kwargs):
            witness = build(*args, **kwargs)
            witness.remove(min(witness, key=repr))
            return witness

        monkeypatch.setattr(correspondence, "coloring_to_independent_set", one_short)
        with pytest.raises(ReductionError, match=r"Lemma 2.1\(a\) violated"):
            verify_lemma_21a(cg, planted)

    def test_lemma_21b_needs_as_many_happy_edges_as_triples(self, instance, monkeypatch):
        _, planted, cg = instance
        witness = coloring_to_independent_set(cg, planted)
        monkeypatch.setattr(correspondence, "happy_edges_of_independent_set", lambda graph, triples: set())
        with pytest.raises(ReductionError, match=r"Lemma 2.1\(b\) violated"):
            verify_lemma_21b(cg, witness)

    def test_lemma_21b_selected_edges_must_be_happy(self, instance, monkeypatch):
        hypergraph, planted, cg = instance
        witness = {t for t in coloring_to_independent_set(cg, planted) if t.edge in hypergraph.edge_ids[:4]}
        others = set(hypergraph.edge_ids[4:])
        monkeypatch.setattr(correspondence, "happy_edges_of_independent_set", lambda graph, triples: others)
        with pytest.raises(ReductionError, match="witness property violated"):
            verify_lemma_21b(cg, witness)


class TestRoundTrip:
    def test_coloring_to_set_to_coloring_preserves_witnesses(self, instance):
        hypergraph, planted, cg = instance
        witness = coloring_to_independent_set(cg, planted)
        recovered = independent_set_to_coloring(cg, witness)
        # The recovered coloring is a restriction of the planted coloring to
        # the chosen witness vertices.
        for v, c in recovered.items():
            assert planted[v] == c
        # And it keeps every edge happy (each edge kept its unique witness).
        happy = happy_edges_of_independent_set(cg, witness)
        assert happy == set(hypergraph.edge_ids)


class TestAfterRemovals:
    """On ``G^i_k`` maintained by ``remove_hyperedges`` alone, both directions read ``E_i``."""

    def test_lemma_21_on_the_surviving_edges(self, instance):
        hypergraph, planted, cg = instance
        removed = hypergraph.edge_ids[::3]
        cg.remove_hyperedges(removed)
        surviving = set(hypergraph.edge_ids) - set(removed)
        assert hypergraph.num_edges() == 10  # the input keeps every edge
        witness = verify_lemma_21a(cg, planted)
        assert {t.edge for t in witness} == surviving
        assert maximum_independent_set_size_bound(cg) == len(surviving)
        assert verify_lemma_21b(cg, witness) == surviving
        for v in hypergraph.vertices:
            assert {t.edge for t in cg.triples_of_vertex(v)} == (
                hypergraph.edges_containing(v) & surviving
            )
