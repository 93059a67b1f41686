"""End-to-end differential fuzzing: incremental engine vs rebuild path.

120 seeded corpus instances (hypergraph families × k × oracle) through
``assert_equivalent_run`` — the one helper every kernel rewrite must keep
green — plus the first seeds again at palettes k ∈ {10, 11} with both
greedy kernels and the λ-capped oracle.  The pytest id carries the
reproducing seed.
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.fuzz.corpus import FAMILIES, ORACLES, assert_equivalent_run, corpus, make_instance

SEED_COUNT = 120
#: Seeds of the wide-palette check below.  Both greedy kernels finish
#: these instances in one phase; the λ-capped oracle needs up to three, so
#: it also drives deletions through the permuted sorted view.
WIDE_PALETTE_SEEDS = range(24)


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_run_equals_run_rebuild(seed):
    assert_equivalent_run(make_instance(seed))


@pytest.mark.parametrize("oracle_name", ["greedy-first-fit", "greedy-min-degree", "capped-first-fit"])
@pytest.mark.parametrize("k", [10, 11])
@pytest.mark.parametrize("seed", WIDE_PALETTE_SEEDS, ids=lambda seed: f"seed={seed}")
def test_run_equals_run_rebuild_at_wide_palettes(seed, k, oracle_name):
    """At k >= 10 color 10 repr-sorts before color 2: the engine's sorted view is a permutation."""
    assert_equivalent_run(dataclasses.replace(make_instance(seed), k=k, oracle_name=oracle_name))


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
