"""End-to-end equality: the incremental phase engine vs. rebuild-per-phase.

``ConflictFreeMulticoloringViaMaxIS.run`` (build/freeze once, alive-mask
views per phase, in-place edge removal) must produce exactly the same
:class:`ReductionResult` as the retained ``run_rebuild`` reference path
(fresh hypergraph restriction + conflict-graph rebuild every phase):
identical phase records (including happy-edge sets and conflict-graph
sizes), identical multicoloring, identical bounds — for every registered
oracle, for λ-capped oracles that force the multi-phase worst-case
regime, and for plain-callable oracles that bypass the id path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import verify_conflict_free_multicoloring
import repro.core.conflict_graph as conflict_graph_module
from repro.core import ConflictFreeMulticoloringViaMaxIS
from repro.core.conflict_graph import ConflictGraph, ConflictVertex
from repro.exceptions import ReductionError
import repro.graphs.indexed as indexed_module
from repro.graphs.indexed import IndexedGraph, IndexedSubgraph
from repro.hypergraph import Hypergraph, colorable_almost_uniform_hypergraph
from repro.maxis import available_approximators, capped_oracle, get_approximator

from tests.conftest import colorable_hypergraphs
from tests.fuzz.corpus import make_instance


def _assert_results_identical(a, b):
    assert a.phases == b.phases  # PhaseRecord dataclass equality: all fields
    assert a.multicoloring == b.multicoloring
    assert (a.k, a.lam, a.phase_bound, a.color_bound) == (
        b.k,
        b.lam,
        b.phase_bound,
        b.color_bound,
    )


class TestEngineEqualsRebuild:
    @pytest.mark.parametrize("oracle_name", sorted(available_approximators()))
    def test_every_registered_oracle(self, oracle_name):
        # Kept small enough that the exponential exact oracle stays fast.
        n, m = (12, 6) if oracle_name == "exact" else (18, 9)
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=3, seed=11)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=get_approximator(oracle_name), lam=4.0
        )
        _assert_results_identical(
            reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        )

    @pytest.mark.parametrize("base", ["greedy-first-fit", "greedy-min-degree"])
    def test_capped_oracles_multi_phase_regime(self, base):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=40, m=25, k=3, seed=23)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=capped_oracle(base, 4.0), lam=4.0
        )
        result = reduction.run(hypergraph)
        assert result.num_phases >= 3  # genuinely exercises the engine
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)

    def test_plain_callable_oracle_bypasses_frozen_fast_path(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=20, m=10, k=3, seed=5)

        calls = []

        def oracle(graph):
            from repro.graphs.graph import Graph

            calls.append(type(graph))
            full = sorted(get_approximator("greedy-first-fit")(graph), key=repr)
            return set(full[: max(1, len(full) // 3)])

        reduction = ConflictFreeMulticoloringViaMaxIS(k=3, approximator=oracle, lam=6.0)
        result = reduction.run(hypergraph)
        # Plain callables keep receiving the mutable Graph, exactly as before.
        from repro.graphs.graph import Graph

        assert calls and all(t is Graph for t in calls)
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))

    def test_graph_only_approximator_works_by_default(self):
        # A custom algorithm written against the mutable-Graph contract
        # (``.vertices`` does not exist on a frozen view) is a plain callable.
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=17)

        def graph_only_solve(graph):
            return {min(graph.vertices, key=repr)}

        reduction = ConflictFreeMulticoloringViaMaxIS(k=2, approximator=graph_only_solve, lam=8.0)
        _assert_results_identical(
            reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        )

    def test_builtins_opt_into_frozen_fast_path(self):
        # Every built-in is an id kernel, so the engine asks it for ids.
        for a in available_approximators().values():
            reduction = ConflictFreeMulticoloringViaMaxIS(k=2, approximator=a, lam=2.0)
            assert reduction._id_oracle is a

    @pytest.mark.parametrize("oracle_name", sorted(available_approximators()) + ["capped"])
    def test_run_builds_no_conflict_vertex(self, oracle_name, monkeypatch):
        """With an id kernel the engine goes from the G_k build to the coloring on ids."""
        n, m = (12, 6) if oracle_name == "exact" else (40, 25)
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=n, m=m, k=3, seed=23)
        if oracle_name == "capped":
            approximator = capped_oracle("greedy-first-fit", 4)
        else:
            approximator = get_approximator(oracle_name)
        reduction = ConflictFreeMulticoloringViaMaxIS(k=3, approximator=approximator, lam=4.0)

        def refuse(*args, **kwargs):
            raise AssertionError("the engine built a ConflictVertex")

        with monkeypatch.context() as patch:
            patch.setattr(conflict_graph_module, "_triple_labels", refuse)
            patch.setattr(ConflictVertex, "__new__", refuse)
            result = reduction.run(hypergraph)
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))

    @pytest.mark.parametrize(
        "oracle_name",
        [
            "greedy-first-fit",
            "capped:greedy-first-fit",
            "greedy-min-degree",
            "capped:greedy-min-degree",
        ],
    )
    def test_mask_kernel_runs_list_no_alive_ids(self, oracle_name, monkeypatch):
        """First-fit and min-degree work on masks: no phase of a run lists the ids of G_k."""
        if oracle_name.startswith("capped:"):
            approximator = capped_oracle(oracle_name[len("capped:"):], 4)
        else:
            approximator = get_approximator(oracle_name)

        def refuse(*args, **kwargs):
            raise AssertionError(f"a {oracle_name} run listed the vertex ids")

        for seed in range(24):
            instance = make_instance(seed)
            reduction = ConflictFreeMulticoloringViaMaxIS(
                k=instance.k, approximator=approximator, lam=4.0
            )
            with monkeypatch.context() as patch:
                patch.setattr(IndexedGraph, "vertex_ids", refuse)
                patch.setattr(IndexedSubgraph, "vertex_ids", refuse)
                patch.setattr(indexed_module, "iter_bits", refuse)
                result = reduction.run(instance.hypergraph)
            _assert_results_identical(result, reduction.run_rebuild(instance.hypergraph))

    def test_capped_oracle_honours_fractional_lambda(self):
        from repro.graphs import Graph

        g = Graph(vertices=range(10))  # edgeless: first-fit selects all 10
        assert len(capped_oracle("greedy-first-fit", 2.5)(g)) == 4  # ceil(10/2.5)
        assert len(capped_oracle("greedy-first-fit", 1.5)(g)) == 7  # ceil(10/1.5)

    def test_input_hypergraph_is_not_mutated(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=16, m=8, k=2, seed=3)
        snapshot = hypergraph.copy()
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=4.0
        )
        reduction.run(hypergraph)
        assert hypergraph == snapshot

    def test_edgeless_input_produces_no_phases_on_both_paths(self):
        hypergraph = Hypergraph(vertices=[0, 1, 2])
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=2.0
        )
        a, b = reduction.run(hypergraph), reduction.run_rebuild(hypergraph)
        _assert_results_identical(a, b)
        assert a.phases == [] and a.total_colors == 0

    @given(
        colorable_hypergraphs(max_n=14, max_m=7, max_k=3),
        st.sampled_from(
            ["greedy-min-degree", "greedy-first-fit", "luby-best-of-5", "clique-cover"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_instances(self, triple, oracle_name):
        hypergraph, _, k = triple
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=k, approximator=get_approximator(oracle_name), lam=8.0
        )
        result = reduction.run(hypergraph)
        _assert_results_identical(result, reduction.run_rebuild(hypergraph))
        verify_conflict_free_multicoloring(hypergraph, result.multicoloring)


def _build_state(build):
    """The rows, blocks (members copied) and edge count of a build, for before/after checks."""
    blocks = {e: (tuple(members), base) for e, (members, base) in build.blocks.items()}
    return list(build.snapshot.bitsets()), blocks, build.num_edges


class TestSharedBuild:
    """Runs that start from one kept ``G_k`` build share it and never write to it."""

    def test_oracles_in_turn_on_one_build_leave_it_as_built(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=40, m=25, k=3, seed=23)
        build = ConflictGraph(hypergraph, 3).build
        built = _build_state(build)
        oracles = (capped_oracle("greedy-first-fit", 4.0), capped_oracle("greedy-min-degree", 4.0))
        for oracle in oracles:
            reduction = ConflictFreeMulticoloringViaMaxIS(k=3, approximator=oracle, lam=4.0)
            shared = reduction.run(hypergraph, build)
            assert shared.num_phases >= 3  # removals over several phases
            assert reduction.last_build is build
            _assert_results_identical(shared, reduction.run_rebuild(hypergraph))
            assert reduction.last_build is build  # run_rebuild takes and leaves none
            assert _build_state(build) == built, f"{oracle.name} wrote to the shared build"
        fresh = ConflictGraph(hypergraph, 3, build)
        assert (fresh.num_hyperedges(), fresh.num_edges()) == (hypergraph.num_edges(), built[2])

    def test_a_run_leaves_the_build_it_made(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=18, m=9, k=3, seed=11)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=3, approximator=get_approximator("greedy-min-degree"), lam=4.0
        )
        first = reduction.run(hypergraph)
        build = reduction.last_build
        assert build.hypergraph is hypergraph and build.k == 3
        _assert_results_identical(reduction.run(hypergraph, build), first)

    def test_a_build_of_another_hypergraph_or_k_is_refused(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=18, m=9, k=3, seed=11)
        build = ConflictGraph(hypergraph, 3).build
        with pytest.raises(ReductionError, match="another hypergraph"):
            ConflictGraph(hypergraph.copy(), 3, build)  # equal, but another object
        with pytest.raises(ReductionError, match="another hypergraph"):
            ConflictGraph(hypergraph, 2, build)
        reduction = ConflictFreeMulticoloringViaMaxIS(
            k=2, approximator=get_approximator("greedy-first-fit"), lam=4.0
        )
        with pytest.raises(ReductionError):
            reduction.run(hypergraph, build)

    def test_the_build_refuses_writes(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(n=18, m=9, k=3, seed=11)
        build = ConflictGraph(hypergraph, 3).build
        with pytest.raises(TypeError):
            build.blocks[0] = ([], 0)
        with pytest.raises(AttributeError):
            build.num_edges = 0
