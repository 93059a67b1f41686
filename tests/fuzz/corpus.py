"""Seeded corpus generator for the differential-fuzzing harness.

Every instance is a deterministic function of one integer seed: the seed
drives the choice of hypergraph family, its size parameters, the palette
size ``k`` and the MaxIS oracle.  Tests parametrize over seed ranges, so
a failing case is reproduced by ``make_instance(<seed>)`` — the seed is
part of both the pytest id and every assertion message.

The central helper is :func:`assert_equivalent_run`: the incremental
phase engine (`run`, whose only phase state is the maintained conflict
graph and its incidence-driven happy check) must agree bit for bit with
the from-scratch `run_rebuild` path — phases, colorings and per-phase
happy sets — and neither path may mutate the instance it was given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.coloring.multicoloring import verify_conflict_free_multicoloring
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS, ReductionResult
from repro.hypergraph import (
    Hypergraph,
    almost_uniform_hypergraph,
    colorable_almost_uniform_hypergraph,
    random_interval_hypergraph,
    sunflower_hypergraph,
    uniform_random_hypergraph,
)
from repro.maxis import capped_oracle, get_approximator

FAMILIES = (
    "uniform",
    "almost-uniform",
    "colorable",
    "interval",
    "sunflower",
    "duplicate-heavy",
)

#: Oracle pool: the two greedy kernels, the batched Luby kernel and the
#: λ-capped oracle (the multi-phase worst-case regime of the benchmark).
ORACLES = (
    "greedy-first-fit",
    "greedy-min-degree",
    "luby-batch-of-8",
    "capped-first-fit",
)

#: The exponential ``exact`` oracle runs only on conflict graphs of at most
#: this many triples; the corpus solves each of those within ~50 ms.
EXACT_MAX_TRIPLES = 80


@dataclass(frozen=True)
class Instance:
    """One corpus entry; fully determined by ``seed``."""

    seed: int
    family: str
    hypergraph: Hypergraph
    k: int
    oracle_name: str

    @property
    def label(self) -> str:
        return (
            f"seed={self.seed} family={self.family} n={self.hypergraph.num_vertices()} "
            f"m={self.hypergraph.num_edges()} k={self.k} oracle={self.oracle_name}"
        )


def _duplicate_heavy_hypergraph(rng: random.Random) -> Hypergraph:
    """A hypergraph stressing duplicate member sets and overlapping edges."""
    n = rng.randint(4, 10)
    h = Hypergraph(vertices=range(n))
    universe = list(range(n))
    next_id = 0
    for _ in range(rng.randint(1, 4)):
        members = rng.sample(universe, rng.randint(1, min(4, n)))
        h.add_edge(members, edge_id=next_id)
        next_id += 1
        # Duplicate the member set under fresh ids (multi-hypergraph) and
        # add an overlapping superset edge.
        for _ in range(rng.randint(1, 2)):
            h.add_edge(members, edge_id=next_id)
            next_id += 1
        if len(members) < n:
            extra = rng.choice([v for v in universe if v not in members])
            h.add_edge(list(members) + [extra], edge_id=next_id)
            next_id += 1
    return h


def make_hypergraph(family: str, rng: random.Random) -> Hypergraph:
    """Build the ``family`` member selected by ``rng`` (small, fast sizes)."""
    if family == "uniform":
        n = rng.randint(4, 12)
        return uniform_random_hypergraph(
            n=n, m=rng.randint(0, 8), edge_size=rng.randint(1, min(4, n)), seed=rng
        )
    if family == "almost-uniform":
        k = rng.randint(1, 3)
        n = rng.randint(2 * k + 2, 14)
        return almost_uniform_hypergraph(
            n=n, m=rng.randint(1, 8), k=k, epsilon=1.0, seed=rng
        )
    if family == "colorable":
        k = rng.randint(1, 3)
        n = rng.randint(2 * k + 2, 14)
        hypergraph, _planted = colorable_almost_uniform_hypergraph(
            n=n, m=rng.randint(1, 8), k=k, epsilon=1.0, seed=rng
        )
        return hypergraph
    if family == "interval":
        return random_interval_hypergraph(
            n_points=rng.randint(4, 12), n_intervals=rng.randint(1, 8), seed=rng
        )
    if family == "sunflower":
        return sunflower_hypergraph(
            n_petals=rng.randint(1, 5),
            petal_size=rng.randint(1, 3),
            core_size=rng.randint(1, 2),
        )
    if family == "duplicate-heavy":
        return _duplicate_heavy_hypergraph(rng)
    raise ValueError(f"unknown corpus family {family!r}")


def make_oracle(name: str):
    """Resolve an :data:`ORACLES` entry, any registry name or ``capped-<greedy kernel>``.

    ``capped-first-fit`` and ``capped-min-degree`` are the λ = 2 caps of
    ``greedy-first-fit`` and ``greedy-min-degree``.
    """
    if name.startswith("capped-"):
        return capped_oracle(f"greedy-{name[len('capped-'):]}", lam=2.0)
    return get_approximator(name)


def make_instance(seed: int) -> Instance:
    """Deterministically derive one corpus instance from ``seed``."""
    rng = random.Random(seed)
    family = rng.choice(FAMILIES)
    k = rng.randint(1, 3)
    oracle_name = rng.choice(ORACLES)
    return Instance(
        seed=seed,
        family=family,
        hypergraph=make_hypergraph(family, rng),
        k=k,
        oracle_name=oracle_name,
    )


def corpus(count: int, base_seed: int = 0):
    """Yield ``count`` instances with seeds ``base_seed .. base_seed+count-1``."""
    return [make_instance(base_seed + i) for i in range(count)]


def assert_equivalent_run(instance: Instance, lam: float = 2.0) -> ReductionResult:
    """Assert ``run == run_rebuild`` on ``instance`` (phases, colorings, happy sets).

    Both paths run on ``instance.hypergraph`` itself, which must come out
    unchanged: the campaign's instance cache shares one instance across
    every task of a grid point.  Returns the (verified conflict-free)
    incremental result so callers can pile on further checks.  Every
    assertion message leads with the reproducing seed.
    """
    reduction = ConflictFreeMulticoloringViaMaxIS(
        k=instance.k, approximator=make_oracle(instance.oracle_name), lam=lam
    )
    hypergraph = instance.hypergraph
    snapshot = (hypergraph.copy(), hypergraph.edge_ids, hypergraph.total_edge_size())
    fast = reduction.run(hypergraph)
    reference = reduction.run_rebuild(hypergraph)
    ctx = f"[{instance.label}]"
    assert (hypergraph, hypergraph.edge_ids, hypergraph.total_edge_size()) == snapshot, (
        f"{ctx} the run mutated its input hypergraph"
    )
    assert fast.multicoloring == reference.multicoloring, (
        f"{ctx} incremental and rebuild multicolorings differ"
    )
    assert len(fast.phases) == len(reference.phases), (
        f"{ctx} phase counts differ: {len(fast.phases)} != {len(reference.phases)}"
    )
    for fp, rp in zip(fast.phases, reference.phases):
        assert fp.happy_edges == rp.happy_edges, (
            f"{ctx} phase {fp.phase} happy sets differ: "
            f"{sorted(fp.happy_edges, key=repr)} != {sorted(rp.happy_edges, key=repr)}"
        )
        assert fp == rp, f"{ctx} phase {fp.phase} records differ"
    assert (fast.phase_bound, fast.color_bound) == (
        reference.phase_bound,
        reference.color_bound,
    ), f"{ctx} bounds differ"
    verify_conflict_free_multicoloring(instance.hypergraph, fast.multicoloring)
    return fast
