"""Tests for the MaxIS approximation algorithms and the oracle registry."""

from __future__ import annotations

import random
from dataclasses import fields
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ApproximationError, IndependenceError
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_graph,
    greedy_maximal_independent_set,
    independence_number,
    maximum_independent_set,
    path_graph,
    verify_independent_set,
)
from repro.graphs.indexed import freeze_sorted
from repro.maxis import (
    MaxISApproximator,
    available_approximators,
    capped_oracle,
    clique_cover_approximation,
    exact_via_networkx,
    get_approximator,
    greedy_clique_cover,
    register_approximator,
    turan_guarantee,
)
from repro.maxis.luby_based import best_of_random_mis_ids, luby_batch_mis_ids

from tests.conftest import complete_graph, graphs, star_graph


class TestRegistry:
    def test_builtin_names_present(self):
        names = set(available_approximators())
        assert {"exact", "greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover"} <= names

    def test_unknown_name_raises(self):
        with pytest.raises(ApproximationError):
            get_approximator("does-not-exist")

    def test_duplicate_registration_rejected(self):
        get_approximator("exact")  # ensure builtins are loaded
        with pytest.raises(ApproximationError):
            register_approximator(
                MaxISApproximator(name="exact", solve_ids=lambda g: [])
            )

    def test_call_verifies_independence(self):
        bad = MaxISApproximator(name="bad-tmp", solve_ids=lambda g: g.vertex_ids())
        with pytest.raises(IndependenceError):
            bad(path_graph(3))

    def test_call_rejects_empty_output_on_nonempty_graph(self):
        lazy = MaxISApproximator(name="lazy-tmp", solve_ids=lambda g: [])
        with pytest.raises(ApproximationError):
            lazy(path_graph(3))

    def test_an_approximator_is_its_id_kernel(self):
        assert [f.name for f in fields(MaxISApproximator)] == [
            "name",
            "solve_ids",
            "guarantee",
            "description",
        ]
        with pytest.raises(TypeError):
            MaxISApproximator(name="no-kernel-tmp")
        assert MaxISApproximator(name="heur-tmp", solve_ids=lambda g: []).guarantee is None

    def test_label_call_names_the_kernel_ids(self):
        # Path 0-1-2-3-4: the kernel's ids are repr-order positions.
        stub = MaxISApproximator(name="ids-tmp", solve_ids=lambda g: [4, 0, 2])
        assert stub(path_graph(5)) == {0, 2, 4}
        with pytest.raises(IndependenceError):
            MaxISApproximator(name="adjacent-tmp", solve_ids=lambda g: [0, 1])(path_graph(5))


class TestIdCall:
    """``approximator(view, ids=True)`` checks a stub ``solve_ids`` on masks."""

    def _view(self):
        # Path 0-1-2-3-4 interned in repr order, with id 4 dead.
        return path_graph(5).freeze(order=range(5)).subgraph_view(0b01111)

    def _stub(self, answer):
        return MaxISApproximator(name="stub-tmp", solve_ids=lambda g: list(answer))

    def test_answer_is_ascending_ids(self):
        assert self._stub([3, 0])(self._view(), ids=True) == [0, 3]

    @pytest.mark.parametrize(
        "answer", [[0, 4], [2, -1], [0, 2, 0], [0, 1]], ids=["dead", "negative", "repeated", "adjacent"]
    )
    def test_bad_answers_raise_independence_error(self, answer):
        with pytest.raises(IndependenceError):
            self._stub(answer)(self._view(), ids=True)

    def test_empty_answer_on_nonempty_view_raises(self):
        with pytest.raises(ApproximationError):
            self._stub([])(self._view(), ids=True)

    def test_empty_answer_on_empty_view_is_accepted(self):
        empty = path_graph(5).freeze().subgraph_view(0)
        assert self._stub([])(empty, ids=True) == []


class TestCappedOracle:
    def test_it_keeps_the_smallest_ids_of_its_base_kernel(self):
        capped = capped_oracle("greedy-first-fit", 2.5)
        g = Graph(vertices=range(10))  # edgeless: first-fit selects all 10
        assert capped(g) == {0, 1, 2, 3}  # the ceil(10/2.5) smallest in repr order
        assert capped(g.freeze(), ids=True) == [0, 1, 2, 3]


class TestExact:
    def test_exact_matches_known_values(self):
        assert len(maximum_independent_set(cycle_graph(9))) == 4
        assert len(maximum_independent_set(complete_graph(5))) == 1

    def test_networkx_cross_check_empty_graph(self):
        assert exact_via_networkx(Graph()) == set()


class TestGreedy:
    def test_min_degree_greedy_turan_bound(self):
        min_degree = get_approximator("greedy-min-degree")
        for seed in range(5):
            g = erdos_renyi_graph(25, 0.2, seed=seed)
            result = min_degree(g)
            caro_wei = sum(1.0 / (g.degree(v) + 1) for v in g.vertices)
            assert len(result) >= caro_wei - 1e-9

    def test_first_fit_greedy_is_independent(self, random_graph):
        verify_independent_set(random_graph, get_approximator("greedy-first-fit")(random_graph))

    def test_turan_guarantee_is_delta_plus_one(self, random_graph):
        assert turan_guarantee(random_graph) == random_graph.max_degree() + 1

    @given(graphs(max_n=10))
    @settings(max_examples=30, deadline=None)
    def test_greedy_within_guarantee(self, g):
        if g.num_vertices() == 0:
            return
        result = get_approximator("greedy-min-degree")(g)
        alpha = independence_number(g)
        assert len(result) * turan_guarantee(g) >= alpha


def _random_order_labels(graph, trials, seed):
    """Labels of ``best_of_random_mis_ids`` on ``graph`` frozen in ``repr`` order."""
    frozen = freeze_sorted(graph)
    return {frozen.label(i) for i in best_of_random_mis_ids(frozen, trials=trials, seed=seed)}


class TestLubyBased:
    def test_random_order_mis_is_maximal(self, random_graph):
        from repro.graphs import is_maximal_independent_set

        single = _random_order_labels(random_graph, trials=1, seed=1)
        assert is_maximal_independent_set(random_graph, single)

    def test_best_of_trials_not_smaller_than_single_run(self, random_graph):
        single = _random_order_labels(random_graph, trials=1, seed=0)
        best = _random_order_labels(random_graph, trials=8, seed=0)
        assert len(best) >= len(single)

    def test_trials_must_be_positive(self, random_graph):
        with pytest.raises(ApproximationError):
            best_of_random_mis_ids(freeze_sorted(random_graph), trials=0)

    def test_batched_trials_must_be_positive(self, random_graph):
        with pytest.raises(ApproximationError, match="trials must be positive"):
            luby_batch_mis_ids(freeze_sorted(random_graph), 0, seed=0)

    def test_luby_based_approximation_deterministic_for_seed(self, random_graph):
        a = _random_order_labels(random_graph, trials=5, seed=5)
        b = _random_order_labels(random_graph, trials=5, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed", range(20))
    def test_trials_are_first_fit_along_a_shuffled_repr_order(self, seed):
        """Reference: greedy MIS along the shuffled ``repr`` order, first largest trial."""
        g = erdos_renyi_graph(random.Random(seed).randint(1, 14), 0.3, seed=seed)
        rng = random.Random(seed)
        best = set()
        for _ in range(5):
            order = sorted(g.vertices, key=repr)
            rng.shuffle(order)
            trial = greedy_maximal_independent_set(g, order=order)
            if len(trial) > len(best):
                best = trial
        assert _random_order_labels(g, trials=5, seed=seed) == best


class TestCliqueCover:
    def test_cover_is_partition(self, random_graph):
        cliques = greedy_clique_cover(random_graph)
        union = set()
        total = 0
        for clique in cliques:
            assert all(random_graph.has_edge(u, v) for u, v in combinations(clique, 2))
            union |= clique
            total += len(clique)
        assert union == random_graph.vertices
        assert total == random_graph.num_vertices()

    def test_cover_size_upper_bounds_alpha(self):
        for seed in range(4):
            g = erdos_renyi_graph(16, 0.3, seed=seed)
            assert len(greedy_clique_cover(g)) >= independence_number(g)

    def test_representatives_are_independent(self, random_graph):
        verify_independent_set(random_graph, clique_cover_approximation(random_graph))

    def test_star_graph_cover(self):
        from repro.graphs import is_maximal_independent_set

        g = star_graph(5)
        result = clique_cover_approximation(g)
        # On a star the procedure either picks the center (if its clique comes
        # first) or the leaves; both are maximal independent sets.
        assert is_maximal_independent_set(g, result)
        assert len(greedy_clique_cover(g)) == 5


class TestRegisteredQuality:
    @pytest.mark.parametrize(
        "name", ["greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover", "exact"]
    )
    def test_every_registered_approximator_respects_its_guarantee(self, name):
        approximator = get_approximator(name)
        cases = [(18, 0.25, seed) for seed in range(3)] + [(16, 0.2, 1), (20, 0.3, 2), (24, 0.4, 3)]
        for n, p, seed in cases:
            g = erdos_renyi_graph(n, p, seed=seed)
            result = approximator(g)
            lam = approximator.guarantee(g)
            assert lam >= 1
            assert len(result) * lam >= independence_number(g)

    def test_exact_approximator_is_optimal(self):
        approximator = get_approximator("exact")
        g = erdos_renyi_graph(16, 0.3, seed=5)
        assert len(approximator(g)) == independence_number(g)

    @given(graphs(max_n=10), st.sampled_from(["greedy-min-degree", "luby-best-of-5", "clique-cover"]))
    @settings(max_examples=30, deadline=None)
    def test_approximators_always_return_independent_sets(self, g, name):
        if g.num_vertices() == 0:
            return
        result = get_approximator(name)(g)
        verify_independent_set(g, result)
        assert result
