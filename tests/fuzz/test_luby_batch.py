"""Differential fuzzing of the bit-parallel batched Luby kernel.

The scalar reference is :func:`repro.graphs.independent_sets.luby_mis`;
trial ``t`` of :func:`repro.maxis.luby_batch_mis_ids` must reproduce it
bit for bit under the shared per-trial seeds of
:func:`repro.maxis.luby_trial_seeds`, on full graphs and on alive-mask
subgraph views.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import erdos_renyi_graph
from repro.graphs.independent_sets import is_maximal_independent_set, luby_mis
from repro.graphs.indexed import freeze_sorted
from repro.hypergraph import colorable_almost_uniform_hypergraph
from repro.core.conflict_graph import ConflictGraph
from repro.maxis import get_approximator, luby_batch_mis_ids, luby_trial_seeds
from repro.maxis.luby_based import luby_batch_best_ids

SEED_COUNT = 110


def _best_labels(frozen, trials, seed):
    """Labels of the first largest batched trial on a ``repr``-ordered frozen graph."""
    return {frozen.label(i) for i in luby_batch_best_ids(frozen, trials, seed)}


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_every_batched_trial_matches_scalar_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 14)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.6), seed=rng.randrange(10_000))
    frozen = freeze_sorted(g)
    trials = rng.randint(1, 9)
    per_trial = luby_batch_mis_ids(frozen, trials, seed=seed)
    seeds = luby_trial_seeds(seed, trials)
    assert len(per_trial) == trials
    for t in range(trials):
        got = {frozen.label(i) for i in per_trial[t]}
        expected = luby_mis(g, seed=seeds[t])
        assert got == expected, (
            f"[seed={seed}] trial {t}: batch {sorted(got, key=repr)!r} != "
            f"scalar {sorted(expected, key=repr)!r}"
        )
        if n:
            assert is_maximal_independent_set(g, got), f"[seed={seed}] trial {t}"


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 5))
def test_best_of_batch_keeps_first_maximum(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    g = erdos_renyi_graph(n, rng.uniform(0.0, 0.6), seed=rng.randrange(10_000))
    trials = 5
    best = _best_labels(freeze_sorted(g), trials=trials, seed=seed)
    scalar_best = set()
    for s in luby_trial_seeds(seed, trials):
        candidate = luby_mis(g, seed=s)
        if len(candidate) > len(scalar_best):
            scalar_best = candidate
    assert best == scalar_best, f"[seed={seed}]"


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 10))
def test_batch_on_view_matches_dense_rebuild(seed):
    """On a conflict-graph view the batch equals a rebuilt-subgraph batch."""
    hypergraph, _ = colorable_almost_uniform_hypergraph(
        n=16, m=10, k=2, epsilon=0.5, seed=seed
    )
    cg = ConflictGraph(hypergraph, 2)
    first = get_approximator("greedy-first-fit")(cg.frozen_sorted())
    happy = sorted({t.edge for t in first}, key=repr)
    cg.remove_hyperedges(happy[: max(1, len(happy) // 2)])
    view = cg.frozen_sorted()
    via_view = _best_labels(view, trials=4, seed=seed)
    dense = freeze_sorted(view.to_graph())
    via_dense = _best_labels(dense, trials=4, seed=seed)
    assert via_view == via_dense, f"[seed={seed}]"


def test_registry_luby_batch_agrees_on_frozen_and_mutable():
    hypergraph, _ = colorable_almost_uniform_hypergraph(
        n=20, m=12, k=3, epsilon=0.5, seed=3
    )
    cg = ConflictGraph(hypergraph, 3)
    approx = get_approximator("luby-batch-of-8")
    assert approx(cg.frozen_sorted()) == approx(cg.graph)
