"""Differential fuzzing of the bit-sliced minimum-degree greedy kernel.

The reference path is the plain-graph
:func:`repro.graphs.independent_sets.greedy_min_degree_independent_set`;
the production kernel :func:`repro.graphs.indexed.min_degree_greedy_ids`,
which keeps residual degrees in bit planes, must match it bit for bit on
full graphs, on alive-mask subgraph views, on every phase view the
reduction hands the oracle on the demo campaign grid (degrees up to 311,
past the first byte), on conflict graphs shrunk by ``remove_hyperedges``,
and on the small and dense edge cases: no planes, one vertex, an empty
view, a star and G(400, 0.5).  :func:`repro.graphs.indexed.bit_planes`,
which builds the planes, must give back every value across byte lanes,
for any word width and either byte order.
"""

from __future__ import annotations

import random
import sys
from array import array

import pytest

from repro.core.conflict_graph import ConflictGraph
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.graphs import erdos_renyi_graph
from repro.graphs.independent_sets import greedy_min_degree_independent_set
from repro.graphs.graph import Graph
from repro.graphs.indexed import bit_planes, freeze_sorted, min_degree_greedy_ids
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.maxis import MaxISApproximator
from repro.runtime.tasks import build_instance
from tests.conftest import star_graph
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

#: Values that cross the byte lanes of a degree word.
PLANE_VALUES = [0, 1, 255, 256, 65535, 65536, 2**40 + 3]


def _assert_matches_reference(graph, ctx):
    """Assert kernel == reference on ``graph``; return the selected ids."""
    ids = min_degree_greedy_ids(graph)
    got = {graph.label(i) for i in ids}
    expected = greedy_min_degree_independent_set(graph.to_graph())
    assert got == expected, f"{ctx} kernel {got!r} != reference {expected!r}"
    return ids


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

    oracle = MaxISApproximator(name="checked-min-degree", solve_ids=checked)
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
    view = cg.frozen_sorted()
    selected = _assert_matches_reference(view, f"{ctx} snapshot")
    for step in (1, 2):
        touched = sorted({view.label(i).edge for i in selected}, key=repr)
        cg.remove_hyperedges(rng.sample(touched, (len(touched) + 1) // 2))
        view = cg.frozen_sorted()
        selected = _assert_matches_reference(view, f"{ctx} view {step}")


class TestNoCsrMaterialization:
    """`greedy-min-degree` on a conflict-graph snapshot equals the reference."""

    def _conflict_graph(self):
        hypergraph, _ = colorable_almost_uniform_hypergraph(
            n=24, m=15, k=3, epsilon=0.5, seed=11
        )
        return ConflictGraph(hypergraph, 3)

    def test_reference_equality_still_holds_without_csr(self):
        cg = self._conflict_graph()
        frozen = cg.frozen_sorted()
        got = {frozen.label(i) for i in min_degree_greedy_ids(frozen)}
        expected = greedy_min_degree_independent_set(cg.graph)
        assert got == expected


def _values_of(planes, count):
    """Read ``count`` values back from their bit planes."""
    return [
        sum(((plane >> i) & 1) << j for j, plane in enumerate(planes))
        for i in range(count)
    ]


@pytest.mark.parametrize("byteorder", ["little", "big"])
@pytest.mark.parametrize("width", [6, 8, 16])
def test_bit_planes_give_back_every_value(width, byteorder):
    words = b"".join(v.to_bytes(width, byteorder) for v in PLANE_VALUES)
    planes = bit_planes(words, width, byteorder, 8 * width)
    assert len(planes) == 8 * width
    assert _values_of(planes, len(PLANE_VALUES)) == PLANE_VALUES


def test_bit_planes_of_a_native_degree_array():
    """The kernel's own call: an ``array("Q")`` in the host's byte order."""
    words = array("Q", PLANE_VALUES)
    count = max(PLANE_VALUES).bit_length()
    planes = bit_planes(words.tobytes(), words.itemsize, sys.byteorder, count)
    assert len(planes) == count == 41
    assert _values_of(planes, len(PLANE_VALUES)) == PLANE_VALUES


def test_bit_planes_of_no_words_or_no_planes():
    assert bit_planes(b"", 8, "little", 3) == [0, 0, 0]
    assert bit_planes(bytes(16), 8, "big", 0) == []


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(Graph(), id="empty"),
        pytest.param(Graph(vertices=[0]), id="one-vertex"),
        pytest.param(Graph(vertices=range(12)), id="edgeless"),
        pytest.param(star_graph(300), id="star-K1,300"),
        pytest.param(erdos_renyi_graph(400, 0.5, seed=7), id="G(400,0.5)"),
    ],
)
def test_small_and_dense_graphs_match_reference(graph):
    ids = _assert_matches_reference(freeze_sorted(graph), f"[{graph!r}]")
    assert ids == sorted(ids)


def test_empty_view_selects_nothing():
    view = freeze_sorted(star_graph(5)).subgraph_view(0)
    assert _assert_matches_reference(view, "[empty view]") == []
