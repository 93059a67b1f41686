"""Quantitative bounds from the proof of Theorem 1.1.

The hardness reduction runs ``ρ = λ·ln(m) + 1`` phases; after phase ``i``
at most ``(1 - 1/λ)^i · m`` hyperedges remain unhappy, so after ``ρ``
phases the count drops below 1 and the produced multicoloring uses at most
``k·ρ`` colors.  These closed forms are collected here so that the
reduction, its certificates and the tests all compute them in exactly one
place.
"""

from __future__ import annotations

import math

from repro.exceptions import ReductionError


def phase_budget(lam: float, m: int) -> int:
    """Return ``ρ = ⌈λ·ln(m)⌉ + 1``, the number of phases used by the reduction.

    Parameters
    ----------
    lam:
        The approximation factor λ ≥ 1 of the MaxIS oracle.
    m:
        The number of hyperedges of the original hypergraph.

    Notes
    -----
    The paper sets ``ρ = λ·ln(m) + 1`` and argues
    ``(1 - 1/λ)^ρ · m ≤ e^{-ρ/λ} · m < 1``.  Since the number of phases must
    be an integer we take the ceiling of ``λ·ln(m)``, which can only help.
    For ``m ≤ 1`` a single phase suffices.
    """
    if lam < 1:
        raise ReductionError(f"approximation factor must be ≥ 1, got {lam}")
    if m < 0:
        raise ReductionError(f"edge count must be non-negative, got {m}")
    if m <= 1:
        return 1
    return math.ceil(lam * math.log(m)) + 1


def color_budget(k: int, lam: float, m: int) -> int:
    """Return the total color budget ``k·ρ`` of the reduction."""
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    return k * phase_budget(lam, m)


def expected_remaining_edges(m: int, lam: float, phase: int) -> float:
    """Return the guaranteed bound ``(1 - 1/λ)^phase · m`` on surviving edges."""
    if lam < 1:
        raise ReductionError(f"approximation factor must be ≥ 1, got {lam}")
    if phase < 0:
        raise ReductionError(f"phase must be non-negative, got {phase}")
    if m < 0:
        raise ReductionError(f"edge count must be non-negative, got {m}")
    return ((1.0 - 1.0 / lam) ** phase) * m


def conflict_graph_vertex_count(total_edge_size: int, k: int) -> int:
    """Return ``|V(G_k)| = k · Σ_e |e|``."""
    if k <= 0:
        raise ReductionError(f"palette size k must be positive, got {k}")
    if total_edge_size < 0:
        raise ReductionError("total edge size must be non-negative")
    return k * total_edge_size


def conflict_graph_edge_count_upper_bound(total_edge_size: int, k: int) -> int:
    """Return the trivial quadratic upper bound ``|E(G_k)| ≤ |V(G_k)|² / 2``.

    The paper only needs polynomiality; the quadratic bound is what the
    measured edge counts are checked against.
    """
    n = conflict_graph_vertex_count(total_edge_size, k)
    return n * n // 2


def is_polylog(value: float, n: int, exponent: float = 3.0, constant: float = 8.0) -> bool:
    """Heuristic check that ``value ≤ constant · log2(n)^exponent``.

    "Polylogarithmic" is an asymptotic notion; for finite instances this
    checks whether the measured quantity stays under a fixed reference
    envelope ``c · log^3`` (the color-budget check of
    ``tests/test_paper_claims.py`` uses ``c = 32``,
    :meth:`~repro.reductions.framework.ReductionOverhead.is_polylog`
    ``c = 16``).
    """
    if n < 2:
        return True
    return value <= constant * (math.log2(n) ** exponent)
