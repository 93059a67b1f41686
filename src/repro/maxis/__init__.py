"""Maximum-independent-set approximation suite: exact solver, greedy/randomized/clique-cover
approximators, the λ-approximation oracle interface, and guarantee verification."""

from repro.maxis.approximators import (
    MaxISApproximator,
    available_approximators,
    capped_oracle,
    get_approximator,
    register_approximator,
)
from repro.maxis.exact import exact_via_networkx
from repro.maxis.greedy import turan_guarantee
from repro.maxis.local_ratio import clique_cover_approximation, greedy_clique_cover
from repro.maxis.luby_based import luby_batch_mis_ids, luby_trial_seeds
from repro.maxis.verification import (
    ApproximationReport,
    check_approximation,
    require_approximation,
)

__all__ = [
    "MaxISApproximator",
    "available_approximators",
    "capped_oracle",
    "get_approximator",
    "register_approximator",
    "exact_via_networkx",
    "turan_guarantee",
    "clique_cover_approximation",
    "greedy_clique_cover",
    "luby_batch_mis_ids",
    "luby_trial_seeds",
    "ApproximationReport",
    "check_approximation",
    "require_approximation",
]
