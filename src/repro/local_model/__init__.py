"""LOCAL model simulator: synchronous message passing, classic algorithms, virtual graphs."""

from repro.local_model.message import Inbox, Message
from repro.local_model.node import LocalNode, LocalNodeAlgorithm
from repro.local_model.network import LocalNetwork, LocalRunResult
from repro.local_model.algorithms import (
    LubyMIS,
    RandomizedColoring,
    luby_mis,
    randomized_coloring,
)
from repro.local_model.deterministic import (
    ColeVishkinRingColoring,
    ColorReductionColoring,
    cole_vishkin_ring,
    cole_vishkin_rounds_needed,
    color_reduction,
)
from repro.local_model.virtual_graphs import VirtualGraphEmbedding, run_simulated

__all__ = [
    "Inbox",
    "Message",
    "LocalNode",
    "LocalNodeAlgorithm",
    "LocalNetwork",
    "LocalRunResult",
    "LubyMIS",
    "RandomizedColoring",
    "luby_mis",
    "randomized_coloring",
    "ColeVishkinRingColoring",
    "ColorReductionColoring",
    "cole_vishkin_ring",
    "cole_vishkin_rounds_needed",
    "color_reduction",
    "VirtualGraphEmbedding",
    "run_simulated",
]
