"""Differential fuzzing of the popcount-recompute minimum-degree greedy kernel.

The reference path is the plain-graph
:func:`repro.graphs.independent_sets.greedy_min_degree_independent_set`;
the production kernel :func:`repro.graphs.indexed.min_degree_greedy_ids`
must match it bit for bit on full graphs, on alive-mask subgraph views,
on every phase view the reduction hands the oracle on the demo campaign
grid, and on conflict graphs shrunk by ``remove_hyperedges``.  The kernel
reads only bitset rows: its selection must not depend on whether the CSR
arrays exist, and it must never build them on a fresh frozen snapshot.
"""

from __future__ import annotations

import random

import pytest

from repro.core.conflict_graph import ConflictGraph
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.graphs import erdos_renyi_graph
from repro.graphs.independent_sets import greedy_min_degree_independent_set
from repro.graphs.indexed import IndexedGraph, freeze_sorted, min_degree_greedy_ids
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import MaxISApproximator, get_approximator
from repro.runtime.tasks import build_instance
from tests.fuzz.corpus import make_instance

SEED_COUNT = 110

#: The demo campaign grid (``examples/campaign_demo.json``): family × (n, m) × k.
GRID = [
    (family, n, m, k)
    for family in ("colorable", "uniform", "interval")
    for n, m in ((20, 12), (30, 20))
    for k in (2, 3)
]
GRID_SEEDS = (0, 1, 2)


def _assert_matches_reference(graph, ctx):
    """Assert kernel == reference on ``graph``; return the selected labels."""
    got = {graph.label(i) for i in min_degree_greedy_ids(graph)}
    expected = greedy_min_degree_independent_set(graph.to_graph())
    assert got == expected, f"{ctx} kernel {got!r} != reference {expected!r}"
    return got


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_bitset_kernel_matches_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 16)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.6), seed=rng.randrange(10_000))
    frozen = freeze_sorted(g)
    got = {frozen.label(i) for i in min_degree_greedy_ids(frozen)}
    expected = greedy_min_degree_independent_set(g)
    assert got == expected, f"[seed={seed}] kernel {got!r} != reference {expected!r}"


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_bitset_and_csr_paths_agree(seed):
    """The selection does not depend on whether the CSR arrays exist."""
    rng = random.Random(seed)
    n = rng.randint(0, 16)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.6), seed=rng.randrange(10_000))
    with_csr = freeze_sorted(g)  # Graph.freeze builds the CSR arrays eagerly
    assert n == 0 or with_csr._indptr is not None
    rebuilt = IndexedGraph._from_bitsets(with_csr.labels(), list(with_csr.bitsets()))
    assert min_degree_greedy_ids(rebuilt) == min_degree_greedy_ids(with_csr), (
        f"[seed={seed}] selection differs between the CSR-backed and rebuilt graphs"
    )
    assert rebuilt._indptr is None, f"[seed={seed}] kernel materialized CSR"


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_view_kernel_matches_dense_rebuild(seed):
    """On a subgraph view the kernel equals a from-scratch rebuild of the subgraph."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.6), seed=rng.randrange(10_000))
    frozen = freeze_sorted(g)
    alive = rng.getrandbits(n) & frozen.alive_mask()
    view = frozen.subgraph_view(alive)
    got = {frozen.label(i) for i in min_degree_greedy_ids(view)}
    dense = freeze_sorted(view.to_graph()) if alive else None
    expected = (
        {dense.label(i) for i in min_degree_greedy_ids(dense)} if alive else set()
    )
    assert got == expected, f"[seed={seed}] view {got!r} != dense {expected!r}"


@pytest.mark.parametrize(
    "family,n,m,k,seed",
    [
        pytest.param(family, n, m, k, seed, id=f"seed={seed}-{family}-n={n}-m={m}-k={k}")
        for seed in GRID_SEEDS
        for family, n, m, k in GRID
    ],
)
def test_every_phase_view_of_the_demo_grid_matches_reference(family, n, m, k, seed):
    """Every view the reduction hands the oracle on a demo grid point."""
    ctx = f"[seed={seed} family={family} n={n} m={m} k={k}]"
    views = []

    def checked(graph):
        views.append(graph.num_vertices())
        return _assert_matches_reference(graph, f"{ctx} phase {len(views)}")

    oracle = MaxISApproximator(
        name="checked-min-degree", solve=checked, accepts_frozen=True
    )
    hypergraph = build_instance(family, n, m, k, epsilon=0.5, seed=seed)
    ConflictFreeMulticoloringViaMaxIS(k=k, approximator=oracle, lam=2.0).run(hypergraph)
    assert views, f"{ctx} the reduction never called the oracle"


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_conflict_graph_views_match_reference(seed):
    """The snapshot, then two views shrunk by removing touched hyperedges."""
    instance = make_instance(seed)
    ctx = f"[{instance.label}]"
    rng = random.Random(seed)
    cg = ConflictGraph(instance.hypergraph, instance.k)
    selected = _assert_matches_reference(cg.frozen_sorted(), f"{ctx} snapshot")
    for step in (1, 2):
        touched = sorted({triple.edge for triple in selected}, key=repr)
        cg.remove_hyperedges(rng.sample(touched, (len(touched) + 1) // 2))
        selected = _assert_matches_reference(cg.frozen_sorted(), f"{ctx} view {step}")


class TestNoCsrMaterialization:
    """`greedy-min-degree` must stay bitset-only on fresh frozen snapshots."""

    def _conflict_graph(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(
            n=24, m=15, k=3, epsilon=0.5, seed=11
        )
        return ConflictGraph(hypergraph, 3)

    def test_kernel_on_fresh_snapshot_keeps_csr_lazy(self):
        cg = self._conflict_graph()
        frozen = cg.frozen_sorted()
        assert frozen._indptr is None, "snapshot should start without CSR"
        min_degree_greedy_ids(frozen)
        assert frozen._indptr is None, (
            "min_degree_greedy_ids materialized the CSR arrays on a fresh snapshot"
        )

    def test_registry_oracle_on_view_keeps_csr_lazy(self):
        cg = self._conflict_graph()
        first = get_approximator("greedy-first-fit")(cg.frozen_sorted())
        happy = {t.edge for t in first}
        cg.remove_hyperedges(set(list(happy)[:3]))
        view = cg.frozen_sorted()
        result = get_approximator("greedy-min-degree")(view)
        assert result  # non-empty on a non-empty view
        base = view._parent if hasattr(view, "_parent") else view
        assert base._indptr is None, (
            "greedy-min-degree on an alive-mask view materialized CSR"
        )

    def test_reference_equality_still_holds_without_csr(self):
        cg = self._conflict_graph()
        frozen = cg.frozen_sorted()
        got = {frozen.label(i) for i in min_degree_greedy_ids(frozen)}
        expected = greedy_min_degree_independent_set(cg.graph)
        assert got == expected
