"""Abstractions for distributed graph problems and local reductions.

The P-SLOCAL framework of [GKM17] is built on two notions the paper relies
on:

* a **problem** — a specification of which outputs are valid for a given
  input graph (or hypergraph); and
* a **local reduction** from problem ``B`` to problem ``A`` — a LOCAL
  algorithm that solves ``B`` given an oracle for ``A`` while incurring
  only polylogarithmic overhead (in locality and in the number of oracle
  calls / virtual-graph size).

This module keeps those notions executable: a :class:`Problem` bundles a
validity checker and a :class:`LocalReduction` bundles the transformation
together with explicit overhead accounting.  The
concrete instances for the problems mentioned in the paper live in
:mod:`repro.reductions.problems`; completeness facts are recorded in
:mod:`repro.reductions.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.bounds import is_polylog
from repro.exceptions import ReductionError, VerificationError


@dataclass(frozen=True)
class Problem:
    """A distributed graph/hypergraph problem.

    Attributes
    ----------
    name:
        Canonical identifier, e.g. ``"maxis-approx"``.
    description:
        One-line human-readable description.
    verify:
        ``verify(instance, solution) -> None``; must raise
        :class:`~repro.exceptions.ReproError` on invalid solutions.  A
        cheap verifier is what places a problem inside P-SLOCAL via the
        [GHK18] derandomization route, so every problem shipped here has one.
    """

    name: str
    description: str
    verify: Callable[[Any, Any], None]


@dataclass
class ReductionOverhead:
    """Overhead accounting of one reduction run.

    Attributes
    ----------
    oracle_calls:
        How many times the target-problem oracle was invoked.
    locality_factor:
        Multiplicative blow-up of the locality/radius (virtual graphs,
        distance powers, …).
    instance_blowup:
        Ratio between the largest oracle instance and the original instance
        size (vertices).
    """

    oracle_calls: int = 0
    locality_factor: float = 1.0
    instance_blowup: float = 1.0

    def is_polylog(self, n: int, exponent: float = 3.0, constant: float = 16.0) -> bool:
        """Whether every overhead component fits under ``c·log2(n)^exponent``.

        The instance blow-up is allowed to be polynomial (local reductions
        may construct polynomially larger virtual graphs); only the number
        of oracle calls and the locality factor must stay polylogarithmic.
        """
        return is_polylog(self.oracle_calls, n, exponent, constant) and is_polylog(
            self.locality_factor, n, exponent, constant
        )


@dataclass
class ReductionRun:
    """The output of executing a :class:`LocalReduction` on a concrete instance."""

    solution: Any
    overhead: ReductionOverhead
    details: Dict[str, Any] = field(default_factory=dict)


class LocalReduction:
    """A local reduction from ``source`` to ``target``.

    Parameters
    ----------
    source / target:
        The two :class:`Problem` objects ("``source`` reduces to ``target``").
    run:
        ``run(instance, oracle) -> ReductionRun`` — solves the source
        problem on ``instance`` using ``oracle`` (a callable solving the
        target problem) and reports the overhead it incurred.
    name:
        Optional display name.
    """

    def __init__(
        self,
        source: Problem,
        target: Problem,
        run: Callable[[Any, Callable[[Any], Any]], ReductionRun],
        name: Optional[str] = None,
    ) -> None:
        self.source = source
        self.target = target
        self._run = run
        self.name = name or f"{source.name}<={target.name}"

    def apply(self, instance: Any, oracle: Callable[[Any], Any], verify: bool = True) -> ReductionRun:
        """Execute the reduction and (optionally) verify the produced solution."""
        run = self._run(instance, oracle)
        if not isinstance(run, ReductionRun):
            raise ReductionError(
                f"reduction {self.name!r} must return a ReductionRun, got {type(run)!r}"
            )
        if verify:
            try:
                self.source.verify(instance, run.solution)
            except Exception as exc:
                raise VerificationError(
                    f"reduction {self.name!r} produced an invalid solution: {exc}"
                ) from exc
        return run
