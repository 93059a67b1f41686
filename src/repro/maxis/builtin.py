"""Registration of the built-in MaxIS approximators.

Importing this module populates the registry in
:mod:`repro.maxis.approximators`; it is imported lazily by
:func:`repro.maxis.approximators.get_approximator` so that library users who
never touch the registry pay nothing.  Each built-in is its id kernel
(``solve_ids``) alone: :meth:`MaxISApproximator.__call__` derives the label
answer from it.  ``greedy-first-fit`` is the candidate-mask walk
:func:`~repro.graphs.indexed.ascending_first_fit_ids`, O(picks) per call
rather than O(alive ids).  The independent reference that checks each
kernel is listed in DESIGN.md, "One kernel per oracle".
"""

from __future__ import annotations

from repro.graphs.indexed import (
    ascending_first_fit_ids,
    iter_bits,
    maximum_independent_set_mask,
    min_degree_greedy_ids,
)
from repro.maxis.approximators import MaxISApproximator, register_approximator
from repro.maxis.greedy import turan_guarantee
from repro.maxis.local_ratio import clique_cover_ids
from repro.maxis.luby_based import best_of_random_mis_ids, luby_batch_best_ids


register_approximator(
    MaxISApproximator(
        name="exact",
        solve_ids=lambda g: iter_bits(maximum_independent_set_mask(g)),
        guarantee=lambda g: 1.0,
        description="Exact branch-and-bound (λ = 1); exponential worst case.",
    )
)

register_approximator(
    MaxISApproximator(
        name="greedy-min-degree",
        solve_ids=min_degree_greedy_ids,
        guarantee=turan_guarantee,
        description="Minimum-degree greedy; Turán-type (Δ+1)-approximation.",
    )
)

register_approximator(
    MaxISApproximator(
        name="greedy-first-fit",
        solve_ids=ascending_first_fit_ids,
        guarantee=turan_guarantee,
        description="First-fit maximal IS along a fixed order; (Δ+1)-approximation.",
    )
)

register_approximator(
    MaxISApproximator(
        name="luby-best-of-5",
        solve_ids=lambda g: best_of_random_mis_ids(g, trials=5, seed=0),
        guarantee=turan_guarantee,
        description="Largest of 5 random-order maximal independent sets.",
    )
)

register_approximator(
    MaxISApproximator(
        name="luby-batch-of-8",
        solve_ids=lambda g: luby_batch_best_ids(g, trials=8, seed=0),
        guarantee=turan_guarantee,
        description="Largest of 8 Luby coin-flip trials, advanced bit-parallel in lanes.",
    )
)

register_approximator(
    MaxISApproximator(
        name="clique-cover",
        solve_ids=clique_cover_ids,
        guarantee=turan_guarantee,
        description="One representative per greedy clique-cover class.",
    )
)
