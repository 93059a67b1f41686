"""Correctness checks of one benchmark run, all outside the timed region.

* row accounting: every operation executed the expected tasks (a no-op
  resume executes none), and every store holds one ``done`` row per task;
* the digest gate: each store's incremental-report digest equals its
  full-row ``campaign_records`` digest, and operations on the same spec
  agree (traced and untraced alike);
* the pin gate: whatever the run's seed, the workload's small pinned spec
  (``Workload.pinned_spec``) is run on a fresh store and its digest must
  equal the one in ``workloads.PINNED_DIGESTS``, so a change to any
  kernel's output fails every run, not only runs at the default seed;
* a certificate sample on the last store: seeded ``done`` rows are rebuilt
  from their instance coordinates and verified with
  ``repro.core.certificates.verify_reduction_result``; for a few of them the
  incremental engine ``run`` must also equal the retained reference
  ``run_rebuild``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import repro.runtime as runtime
import workloads
from repro.core.certificates import verify_reduction_result
from repro.core.reduction import ConflictFreeMulticoloringViaMaxIS
from repro.exceptions import ReproError
from repro.hypergraph.io import reduction_result_from_dict, reduction_result_to_dict

#: ``done`` rows certified per run, and how many of those are also re-run
#: through both engines.
CERTIFIED_ROWS = 8
REBUILT_ROWS = 2


def certify_rows(spec: runtime.CampaignSpec, latest: Dict[str, dict], seed: int) -> List[str]:
    """Certify a seeded sample of the latest ``done`` rows against regenerated instances."""
    payloads = {payload["task_key"]: payload for payload in spec.task_payloads()}
    done = sorted(key for key, row in latest.items() if row["status"] == "done")
    sample = random.Random(seed).sample(done, min(CERTIFIED_ROWS, len(done)))
    problems = []
    for position, key in enumerate(sample):
        row, payload = latest[key], payloads[key]
        try:
            hypergraph = runtime.build_instance(
                family=payload["family"], n=payload["n"], m=payload["m"], k=payload["k"],
                epsilon=payload["epsilon"], seed=payload["instance_seed"],
            )
            if runtime.instance_digest(hypergraph) != row["instance_digest"]:
                problems.append(f"{key}: regenerated instance differs from the stored digest")
                continue
            verify_reduction_result(hypergraph, reduction_result_from_dict(row["result"]))
            if position < REBUILT_ROWS:
                reduction = ConflictFreeMulticoloringViaMaxIS(
                    k=payload["k"],
                    approximator=runtime.resolve_oracle(payload["oracle"], payload["lam"]),
                    lam=payload["lam"],
                )
                incremental = reduction_result_to_dict(reduction.run(hypergraph))
                rebuilt = reduction_result_to_dict(reduction.run_rebuild(hypergraph))
                if not incremental == rebuilt == row["result"]:
                    problems.append(f"{key}: run, run_rebuild and the stored row disagree")
        except ReproError as exc:
            problems.append(f"{key}: certificate failed: {exc}")
    return problems


def store_problems(
    spec: runtime.CampaignSpec, directory, digest: str, certify_seed: Optional[int] = None
) -> List[str]:
    """Check one store: one ``done`` row per task, and its incremental digest against the full rows."""
    rows = runtime.open_store(directory).rows()
    latest = {row["task_key"]: row for row in rows}
    problems = []
    if len(latest) != spec.num_tasks():
        problems.append(f"{directory.name}: {len(latest)} task keys stored, expected {spec.num_tasks()}")
    not_done = sum(row["status"] != "done" for row in latest.values())
    if not_done:
        problems.append(f"{directory.name}: {not_done} tasks have a latest row that is not done")
    full_row = runtime.campaign_digest(runtime.campaign_records(spec, rows))
    if digest != full_row:
        problems.append(
            f"{directory.name}: incremental digest {digest[:12]} != full-row digest {full_row[:12]}"
        )
    if certify_seed is not None:
        problems.extend(certify_rows(spec, latest, certify_seed))
    return problems


def pinned_problems(workload) -> List[str]:
    """Run the workload's pinned spec and check it like an operation, and its digest against the pin."""
    result = workload.run_pinned(workload.workdir / "pinned")
    problems = count_problems("pinned run", result)
    problems.extend(store_problems(result.spec, result.directory, result.digest))
    pin = workloads.PINNED_DIGESTS[workload.name]
    if result.digest != pin:
        problems.append(f"pinned run: digest {result.digest[:12]} != pinned digest {pin[:12]}")
    return problems


def count_problems(label: str, result) -> List[str]:
    if result.tasks == result.expected and not result.extra_executed:
        return []
    return [f"{label} executed {result.tasks}+{result.extra_executed} tasks, expected {result.expected}+0"]


def run_problems(workload, results: Sequence, seed: int) -> List[str]:
    """Every check of one run over its operation results (see the module docstring)."""
    problems = []
    for index, result in enumerate(results):
        problems.extend(count_problems(f"operation {index}", result))
    digests: Dict[int, set] = {}
    for result in results:
        digests.setdefault(result.spec.seed, set()).add(result.digest)
    for campaign_seed, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"campaign seed {campaign_seed}: operations disagree on the digest")
    last_per_store = {result.directory: result for result in results}
    for result in last_per_store.values():
        certify = seed if result is results[-1] else None
        problems.extend(store_problems(result.spec, result.directory, result.digest, certify))
    problems.extend(pinned_problems(workload))
    return problems
