"""Differential fuzzing of the id path: ``approximator(view, ids=True)`` vs the label path.

On corpus conflict graphs at k ∈ {2, 4, 10}, first whole and then after
each removal of half the hyperedges the last answer touched, every
built-in and the λ-capped first-fit and min-degree oracles must answer
``ids=True`` with the ids of exactly the labels their label path returns
on the same view, and ``independent_set_to_coloring`` must read the same
coloring, in the same order, off the ids as off their labels.  The exact
oracle runs only on conflict graphs of at most
:data:`~tests.fuzz.corpus.EXACT_MAX_TRIPLES` triples.  The pytest id
carries the reproducing seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ConflictGraph
from repro.core.correspondence import independent_set_to_coloring
from repro.maxis import available_approximators
from tests.fuzz.corpus import EXACT_MAX_TRIPLES, make_instance, make_oracle

SEEDS = range(24)
PALETTES = (2, 4, 10)
ORACLE_NAMES = sorted(available_approximators()) + ["capped-first-fit", "capped-min-degree"]


def _cases():
    for seed in SEEDS:
        size = make_instance(seed).hypergraph.total_edge_size()
        for k in PALETTES:
            for name in ORACLE_NAMES:
                if name == "exact" and k * size > EXACT_MAX_TRIPLES:
                    continue
                yield pytest.param(seed, k, name, id=f"seed={seed}-k={k}-{name}")


@pytest.mark.parametrize("seed,k,oracle_name", list(_cases()))
def test_ids_name_the_labels_of_the_label_path(seed, k, oracle_name):
    instance = make_instance(seed)
    approximator = make_oracle(oracle_name)
    hypergraph = instance.hypergraph.copy()
    cg = ConflictGraph(hypergraph, k)
    rng = random.Random(seed)
    step = 0
    while True:
        ctx = f"[{instance.label} k={k} oracle={oracle_name} step={step}]"
        view = cg.frozen_sorted()
        ids = approximator(view, ids=True)
        labels = approximator(view)
        assert ids == sorted(ids), f"{ctx} ids not ascending: {ids}"
        assert {view.label(i) for i in ids} == labels, f"{ctx} ids {ids} name other labels"
        by_ids = independent_set_to_coloring(cg, ids)
        by_labels = independent_set_to_coloring(cg, labels)
        assert list(by_ids.items()) == list(by_labels.items()), f"{ctx} colorings differ"
        if not hypergraph.num_edges():
            break
        touched = sorted({view.label(i).edge for i in ids}, key=repr)
        batch = rng.sample(touched, (len(touched) + 1) // 2)
        hypergraph.remove_edges(batch)
        cg.remove_hyperedges(batch)
        step += 1
