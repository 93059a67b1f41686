"""MaxIS approximation via repeated randomized maximal independent sets.

A maximal independent set is automatically a (Δ+1)-approximation of the
maximum independent set.  Running Luby's algorithm (or the random-order
greedy equivalent) several times and keeping the largest set is a simple
randomized baseline that often does much better than its worst-case bound,
including on the conflict graphs of the reduction.

Both kernels run on a frozen :class:`~repro.graphs.indexed.IndexedGraph`
or alive-mask view interned in ``repr`` order and answer with ids: every
random-order trial is a bitset sweep over a freshly shuffled id
permutation, and the Luby trials advance bit-parallel in lanes.  They are
the ``luby-best-of-5`` and ``luby-batch-of-8`` approximators.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

from repro.exceptions import ApproximationError
from repro.graphs.indexed import IndexedGraph, first_fit_mis_ids, iter_bits, popcount


def _one_random_trial(frozen: IndexedGraph, rng: random.Random) -> List[int]:
    """One maximal IS (as ids) along a uniformly random id permutation.

    Shuffling the live-id list with ids interned in ``repr`` order consumes
    the same RNG stream and visits the same vertex sequence as the
    reference implementation, which shuffled the ``repr``-sorted label
    list.  For an alive-mask view the list holds the alive parent ids, so
    the stream (a permutation of ``len(frozen)`` positions) — and hence the
    result — matches a from-scratch rebuild of the subgraph.
    """
    order = list(frozen.vertex_ids())
    rng.shuffle(order)
    return first_fit_mis_ids(frozen, order)


def best_of_random_mis_ids(
    frozen: IndexedGraph,
    trials: int = 10,
    seed: Optional[Union[int, random.Random]] = None,
) -> List[int]:
    """The largest of ``trials`` random-order maximal independent sets: ids.

    Each trial is one maximal independent set along a uniformly random
    order, the sequential equivalent of one full run of Luby's algorithm.
    The first of the largest trials wins.

    Raises
    ------
    ApproximationError
        If ``trials`` is not positive.
    """
    if trials <= 0:
        raise ApproximationError(f"trials must be positive, got {trials}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    best = max((_one_random_trial(frozen, rng) for _ in range(trials)), key=len)
    if len(frozen) > 0 and not best:
        # A maximal independent set of a non-empty graph is never empty;
        # reaching this line indicates a bug upstream.
        raise ApproximationError("random MIS sampling produced an empty set")
    return best


# ----------------------------------------------------------------------
# bit-parallel batched Luby rounds
# ----------------------------------------------------------------------
def luby_trial_seeds(seed: Optional[int], trials: int) -> List[int]:
    """Derive the per-trial seeds of a batched Luby run (shared with tests).

    Trial ``t`` of :func:`luby_batch_mis_ids` behaves exactly like
    ``luby_mis(graph, seed=luby_trial_seeds(seed, trials)[t])`` — the
    differential-fuzzing harness asserts this equality per trial.
    """
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(trials)]


def luby_batch_mis_ids(
    graph: IndexedGraph, trials: int, seed: Optional[int] = None
) -> List[List[int]]:
    """Run ``trials`` Luby coin-flip MIS trials bit-parallel; ids per trial.

    Each trial's state is one Python-int vertex bitmask, and a round's
    coin flips arrive packed in machine-word lanes — one
    ``getrandbits(#alive)`` integer per trial whose bit ``j`` is the flip
    of the ``j``-th alive vertex.  The round's three steps all run as
    whole-word algebra over the existing bitset rows: marking and
    first-fit thinning share a single ascending pass (one ``rows[i] & sel``
    test per marked vertex), and the closed-neighborhood removal is one
    ``dead |= rows[i]`` OR per selected vertex — the graph is never walked
    neighbor by neighbor.  One sweep of the round loop advances every
    trial before any of them proceeds to the next round.

    Randomness is consumed per trial in exactly the reference order
    (rounds outermost, alive vertices ascending), so trial ``t``
    reproduces ``luby_mis(graph, seed=luby_trial_seeds(seed, trials)[t])``
    — see :func:`repro.graphs.independent_sets.luby_mis`.

    Accepts alive-mask subgraph views; returned ids are parent ids.
    """
    if trials <= 0:
        raise ApproximationError(f"trials must be positive, got {trials}")
    ids = list(graph.vertex_ids())
    rngs = [random.Random(s) for s in luby_trial_seeds(seed, trials)]
    if not ids:
        return [[] for _ in range(trials)]
    view_mask = graph.alive_mask()
    raw = graph._bitsets
    rows = {i: raw[i] & view_mask for i in ids}
    alive_v = [view_mask] * trials
    chosen_v = [0] * trials
    pending = True
    while pending:
        pending = False
        for t in range(trials):
            av = alive_v[t]
            if not av:
                continue
            draws = rngs[t].getrandbits(popcount(av))
            # Scatter the packed flips to the alive vertices and thin the
            # marked ones to an independent set, first-fit, in one
            # ascending pass.
            sel = 0
            j = 0
            m = av
            while m:
                low = m & -m
                if (draws >> j) & 1 and not (rows[low.bit_length() - 1] & sel):
                    sel |= low
                j += 1
                m ^= low
            if sel:
                chosen_v[t] |= sel
                dead = sel
                s = sel
                while s:
                    low = s & -s
                    dead |= rows[low.bit_length() - 1]
                    s ^= low
                av &= ~dead
                alive_v[t] = av
            if av:
                pending = True
    return [list(iter_bits(chosen)) for chosen in chosen_v]


def luby_batch_best_ids(
    graph: IndexedGraph, trials: int = 8, seed: Optional[int] = None
) -> List[int]:
    """Largest of ``trials`` bit-parallel Luby MIS trials: the winning trial's ids.

    All trials advance simultaneously through :func:`luby_batch_mis_ids`,
    and the winner is the first trial of maximum size — the same
    tie-break as running the scalar reference per trial and keeping the
    first best.
    """
    best = max(luby_batch_mis_ids(graph, trials, seed), key=len)
    if len(graph) > 0 and not best:
        raise ApproximationError("batched Luby sampling produced an empty set")
    return best
