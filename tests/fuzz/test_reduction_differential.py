"""End-to-end differential fuzzing: incremental engine vs rebuild path.

120 seeded corpus instances (hypergraph families × k × oracle) through
``assert_equivalent_run`` — the one helper every kernel rewrite must keep
green — plus the first seeds again at palettes k ∈ {10, 11} with both
greedy kernels and the λ-capped oracle, again with their vertices and
edge ids relabeled to str, tuple and mixed int/tuple ids, and again with
the id-kernel oracles the corpus pool leaves out.  The pytest id carries
the reproducing seed.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import ConflictGraph
from repro.hypergraph import Hypergraph
from tests.fuzz.corpus import (
    EXACT_MAX_TRIPLES,
    FAMILIES,
    ORACLES,
    assert_equivalent_run,
    corpus,
    make_instance,
)

SEED_COUNT = 120
#: Seeds of the wide-palette and relabeled-id checks below.  Both greedy
#: kernels finish these instances in one phase; the λ-capped oracle needs
#: up to three, so it also drives deletions through the repr-ordered view.
WIDE_PALETTE_SEEDS = range(24)
#: Oracles with an id kernel that ``ORACLES`` leaves out (changing that pool
#: would re-deal every seed); ``capped-min-degree`` stands for the campaign
#: oracle ``capped:greedy-min-degree``.
UNPOOLED_ORACLES = ("exact", "luby-best-of-5", "clique-cover", "capped-min-degree")


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_run_equals_run_rebuild(seed):
    assert_equivalent_run(make_instance(seed))


@pytest.mark.parametrize("oracle_name", ["greedy-first-fit", "greedy-min-degree", "capped-first-fit"])
@pytest.mark.parametrize("k", [10, 11])
@pytest.mark.parametrize("seed", WIDE_PALETTE_SEEDS, ids=lambda seed: f"seed={seed}")
def test_run_equals_run_rebuild_at_wide_palettes(seed, k, oracle_name):
    """At k >= 10 color 10 repr-sorts before color 2: each block's colors run 1, 10, 11, 2, …"""
    assert_equivalent_run(dataclasses.replace(make_instance(seed), k=k, oracle_name=oracle_name))


def _unpooled_oracle_cases():
    for seed in WIDE_PALETTE_SEEDS:
        instance = make_instance(seed)
        for name in UNPOOLED_ORACLES:
            if name == "exact" and instance.k * instance.hypergraph.total_edge_size() > EXACT_MAX_TRIPLES:
                continue
            yield pytest.param(seed, name, id=f"seed={seed}-{name}")


@pytest.mark.parametrize("seed,oracle_name", list(_unpooled_oracle_cases()))
def test_run_equals_run_rebuild_with_unpooled_oracles(seed, oracle_name):
    """The oracles outside ``ORACLES``: their id kernels against their label path, end to end."""
    assert_equivalent_run(dataclasses.replace(make_instance(seed), oracle_name=oracle_name))


def _relabeling(items, kind: str, rng: random.Random) -> dict:
    """A seeded injective map of ``items`` to ``kind`` ids, in shuffled repr order."""
    numbers = list(range(len(items)))
    rng.shuffle(numbers)
    ids = {}
    for item, i in zip(sorted(items, key=repr), numbers):
        if kind == "str":
            ids[item] = f"{rng.choice(('v', 'v ', 'a b '))}{i}"
        elif kind == "tuple":
            ids[item] = (i,) + (0,) * rng.randrange(3)
        else:
            ids[item] = i if rng.random() < 0.5 else (i, "t")
    return ids


@pytest.mark.parametrize("kind", ["str", "tuple", "mixed"])
@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("seed", WIDE_PALETTE_SEEDS, ids=lambda seed: f"seed={seed}")
def test_run_equals_run_rebuild_on_relabeled_ids(seed, k, kind):
    """Non-int ids: the builder's layout is still the repr order the oracles intern by."""
    base = make_instance(seed)
    rng = random.Random(seed)
    vertex_ids = _relabeling(base.hypergraph.vertices, kind, rng)
    edge_ids = _relabeling(base.hypergraph.edge_ids, kind, rng)
    hypergraph = Hypergraph(vertices=vertex_ids.values())
    for e in base.hypergraph.edge_ids:
        hypergraph.add_edge([vertex_ids[v] for v in base.hypergraph.edge(e)], edge_id=edge_ids[e])
    instance = dataclasses.replace(base, hypergraph=hypergraph, k=k)
    labels = ConflictGraph(hypergraph, k).frozen().labels()
    assert list(labels) == sorted(labels, key=repr), (
        f"[{instance.label} ids={kind}] frozen() labels are not in repr order"
    )
    assert_equivalent_run(instance)


def test_corpus_covers_every_family_and_oracle():
    """The seed range actually exercises all families and oracles."""
    instances = corpus(SEED_COUNT)
    assert {i.family for i in instances} == set(FAMILIES)
    assert {i.oracle_name for i in instances} == set(ORACLES)


def test_corpus_is_deterministic():
    a = make_instance(7)
    b = make_instance(7)
    assert a.family == b.family and a.k == b.k and a.oracle_name == b.oracle_name
    assert a.hypergraph == b.hypergraph


def test_edgeless_instance_runs_empty():
    """Edgeless inputs run zero phases identically on both paths."""
    from repro.hypergraph import Hypergraph
    from tests.fuzz.corpus import Instance

    instance = Instance(
        seed=-1,
        family="edgeless",
        hypergraph=Hypergraph(vertices=range(5)),
        k=2,
        oracle_name="greedy-first-fit",
    )
    result = assert_equivalent_run(instance)
    assert result.phases == []
    assert result.multicoloring.num_colors() == 0
