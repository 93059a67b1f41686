"""Deterministic fault injection for the campaign runtime (chaos harness).

A :class:`FaultPlan` describes three independent fault modes a worker may
suffer while executing one task:

* **kill** — the worker process dies instantly (``os._exit``), without
  flushing anything: the moral equivalent of ``kill -9`` or a machine
  reboot mid-row.  Only the shard coordinator's heartbeat/restart logic
  can recover from this.
* **hang** — the task blocks for :data:`HANG_S` seconds, simulating a
  wedged oracle.  The per-task watchdog (``task_timeout_s``) turns this
  into a ``status="timeout"`` row; with no watchdog the shard's
  heartbeat goes stale and the coordinator kills and re-dispatches the
  worker.
* **fail** — a synthetic :class:`~repro.exceptions.FaultInjectionError`
  is raised, which :func:`repro.runtime.tasks.execute_task` records as an
  ordinary ``status="failed"`` row, to be retried under the bounded
  retry policy.

Every decision is a *pure function* of ``(seed, salt, task_key,
attempt)`` via sha256 — no global RNG, no wall clock — so a chaos run is
reproducible: the same plan over the same pending tasks injects the same
faults.  The ``salt`` is bumped by the coordinator on every re-dispatch
of a shard and the ``attempt`` by every retry of a row, so recovery
escapes a deterministic fault instead of replaying it forever; this is
what lets the chaos fuzz suite assert that supervised runs *converge* to
the fault-free serial digest.

Chaos is dangerous by construction (it kills live processes), so it is
double-gated: the CLI refuses ``--chaos`` and :func:`require_chaos`
raises unless the :data:`CHAOS_ENV_VAR` environment variable is set to
``"1"``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exceptions import CampaignError, FaultInjectionError

#: Environment flag gating every chaos entry point (CLI and library).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Exit status of an injected worker kill — the conventional code of a
#: SIGKILLed process, which is what the kill simulates.
KILL_EXIT_CODE = 137

#: The three fault modes, in the order the decision thresholds stack.
FAULT_MODES = ("kill", "hang", "fail")

#: How long an injected hang sleeps.  Deliberately enormous: a hang is
#: only survivable because the watchdog, the heartbeat deadline or the
#: coordinator's wall-clock bound cuts it short.
HANG_S = 3600.0


def chaos_enabled() -> bool:
    """True when the :data:`CHAOS_ENV_VAR` gate is open."""
    return os.environ.get(CHAOS_ENV_VAR) == "1"


def require_chaos() -> None:
    """Raise :class:`CampaignError` unless the chaos environment gate is open."""
    if not chaos_enabled():
        raise CampaignError(
            f"fault injection is guarded: set {CHAOS_ENV_VAR}=1 to allow "
            f"--chaos / FaultPlan execution (it kills live worker processes)"
        )


@dataclass(frozen=True)
class FaultPlan:
    """Per-task fault probabilities plus the deterministic decision seed.

    Attributes
    ----------
    p_kill, p_hang, p_fail:
        Probabilities of the three fault modes per task execution;
        mutually exclusive (at most one fires), so their sum must be
        ``<= 1``.
    seed:
        Decision seed; every injection is a pure function of
        ``(seed, salt, task_key, attempt)``.
    salt:
        Dispatch salt.  The coordinator bumps it on every re-dispatch of
        a shard so a restarted worker draws fresh decisions instead of
        dying on the same task forever.
    max_salt:
        When set, faults are injected only while ``salt < max_salt`` —
        e.g. ``max_salt=1`` faults the first dispatch of every shard and
        leaves every re-dispatch clean, which makes targeted recovery
        tests deterministic.
    """

    p_kill: float = 0.0
    p_hang: float = 0.0
    p_fail: float = 0.0
    seed: int = 0
    salt: int = 0
    max_salt: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("p_kill", "p_hang", "p_fail"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0 <= p <= 1:
                raise CampaignError(f"fault probability {name} must lie in [0, 1], got {p!r}")
        if self.p_kill + self.p_hang + self.p_fail > 1 + 1e-9:
            raise CampaignError(
                f"fault probabilities must sum to <= 1, got "
                f"{self.p_kill} + {self.p_hang} + {self.p_fail}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise CampaignError(f"fault seed must be an int, got {self.seed!r}")
        if not isinstance(self.salt, int) or isinstance(self.salt, bool) or self.salt < 0:
            raise CampaignError(f"fault salt must be a non-negative int, got {self.salt!r}")

    # ------------------------------------------------------------------
    # parsing / payload round trip
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, seed: int = 0, salt: int = 0) -> "FaultPlan":
        """Parse the CLI form ``p_kill,p_hang,p_fail`` (e.g. ``0.1,0.05,0.2``)."""
        parts = text.split(",")
        if len(parts) != 3:
            raise CampaignError(
                f"--chaos must look like p_kill,p_hang,p_fail (e.g. 0.1,0.05,0.2), got {text!r}"
            )
        try:
            p_kill, p_hang, p_fail = (float(part) for part in parts)
        except ValueError as exc:
            raise CampaignError(f"--chaos probabilities must be floats: {exc}") from exc
        return cls(p_kill=p_kill, p_hang=p_hang, p_fail=p_fail, seed=seed, salt=salt)

    def with_salt(self, salt: int) -> "FaultPlan":
        """The same plan re-salted (used per dispatch by the coordinator)."""
        return dataclasses.replace(self, salt=salt)

    def to_payload(self) -> Dict[str, Any]:
        """Plain-dict form carried inside task payloads (pickles cheaply)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_payload`."""
        return cls(**data)

    def cli_args(self) -> list:
        """The ``repro campaign run`` arguments reproducing this plan."""
        args = [
            "--chaos",
            f"{self.p_kill:g},{self.p_hang:g},{self.p_fail:g}",
            "--chaos-seed",
            str(self.seed),
            "--chaos-salt",
            str(self.salt),
        ]
        if self.max_salt is not None:
            args += ["--chaos-max-salt", str(self.max_salt)]
        return args

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decide(self, task_key: str, attempt: int = 1) -> Optional[str]:
        """The fault mode injected for this ``(task_key, attempt)``, if any.

        Pure: sha256 over ``(seed, salt, task_key, attempt)`` mapped to a
        uniform draw in ``[0, 1)``, compared against the stacked
        probability thresholds.  Returns ``"kill"``, ``"hang"``,
        ``"fail"``, or ``None``.
        """
        if self.max_salt is not None and self.salt >= self.max_salt:
            return None
        digest = hashlib.sha256(
            f"{self.seed}|{self.salt}|{task_key}|{attempt}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        if draw < self.p_kill:
            return "kill"
        if draw < self.p_kill + self.p_hang:
            return "hang"
        if draw < self.p_kill + self.p_hang + self.p_fail:
            return "fail"
        return None


def inject_fault(plan: Dict[str, Any], task_key: str, attempt: int) -> None:
    """Execute the plan's decision for one task, inside the worker.

    Called by :func:`repro.runtime.tasks.execute_task` from the payload's
    ``chaos`` dict.  A *kill* terminates the process immediately (no
    flush, no exception — the row is simply never written); a *hang*
    sleeps :data:`HANG_S` unless the watchdog or the supervisor
    intervenes first; a *fail* raises
    :class:`~repro.exceptions.FaultInjectionError`.
    """
    mode = FaultPlan.from_payload(plan).decide(task_key, attempt)
    if mode == "kill":
        os._exit(KILL_EXIT_CODE)
    elif mode == "hang":
        time.sleep(HANG_S)
    elif mode == "fail":
        # The message must not mention the attempt: retries of the same
        # injected failure need an identical error signature, or the
        # retry policy would treat every attempt as a brand-new error and
        # reset its budget (freezing the attempt counter — and with it
        # the fault draw — forever).
        raise FaultInjectionError(
            f"chaos: synthetic oracle failure injected for {task_key!r}"
        )
