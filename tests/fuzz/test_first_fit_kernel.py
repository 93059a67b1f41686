"""Differential fuzzing of the first-fit kernel against its label-native reference.

The reference is :func:`repro.graphs.greedy_maximal_independent_set` on a
mutable :class:`~repro.graphs.Graph`: the locality-1 SLOCAL algorithm
along ``repr`` order.  The ``greedy-first-fit`` approximator is its id
kernel alone, the candidate-mask walk
:func:`repro.graphs.indexed.ascending_first_fit_ids`, so both reduction
paths (``run`` and ``run_rebuild``) and the id-oracle harness run the
kernel; this harness is what checks it.  On a ``repr``-ordered frozen
graph or view the registered kernel's ids must name exactly the
reference's labels, and must equal the explicit-order sweep
``first_fit_mis_ids(g, g.vertex_ids())`` id for id: on corpus conflict
graphs at k ∈ {2, 4, 10}, first whole and then after each removal of
half the hyperedges the last answer touched, and on random graphs and
alive-mask views of them.  The pytest id carries the reproducing seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ConflictGraph
from repro.graphs import erdos_renyi_graph, greedy_maximal_independent_set
from repro.graphs.indexed import first_fit_mis_ids, freeze_sorted
from repro.maxis import get_approximator
from tests.fuzz.corpus import make_instance

SEEDS = range(24)
PALETTES = (2, 4, 10)
RANDOM_SEEDS = range(110)
KERNEL = get_approximator("greedy-first-fit").solve_ids


def _assert_matches_reference(view, graph, ctx):
    """Assert kernel == reference on ``view`` (``graph`` is its mutable copy); return the ids."""
    ids = KERNEL(view)
    swept = first_fit_mis_ids(view, view.vertex_ids())
    assert ids == swept, f"{ctx} kernel ids {ids} != ascending sweep {swept}"
    got = {view.label(i) for i in ids}
    expected = greedy_maximal_independent_set(graph)
    assert got == expected, (
        f"{ctx} kernel {sorted(got, key=repr)!r} != reference {sorted(expected, key=repr)!r}"
    )
    return ids


@pytest.mark.parametrize(
    "seed,k", [pytest.param(seed, k, id=f"seed={seed}-k={k}") for seed in SEEDS for k in PALETTES]
)
def test_kernel_names_the_reference_labels_on_conflict_graphs(seed, k):
    instance = make_instance(seed)
    cg = ConflictGraph(instance.hypergraph, k)
    rng = random.Random(seed)
    step = 0
    while True:
        view = cg.frozen_sorted()
        ids = _assert_matches_reference(view, cg.graph, f"[{instance.label} k={k} step={step}]")
        if not cg.num_hyperedges():
            break
        touched = sorted({view.label(i).edge for i in ids}, key=repr)
        cg.remove_hyperedges(rng.sample(touched, (len(touched) + 1) // 2))
        step += 1


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_kernel_names_the_reference_labels_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 16)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.7), seed=rng.randrange(10_000))
    frozen = freeze_sorted(g)
    _assert_matches_reference(frozen, g, f"[seed={seed}] graph")
    view = frozen.subgraph_view(rng.getrandbits(n) & frozen.alive_mask())
    _assert_matches_reference(view, view.to_graph(), f"[seed={seed}] view")
