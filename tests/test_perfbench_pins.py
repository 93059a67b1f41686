"""The benchmark's pin gate inside tier-1: every workload's pinned spec reproduces its digest.

``perfbench/checks.py`` runs the same gate during a benchmark run.  Here
it runs with the tests, so a change to any kernel's output (one different
selection is enough) fails ``pytest`` instead of the next benchmark run.
The pinned ``multiphase-capped`` spec also runs once under the layer
ledger, so an engine that stops calling one of the entry points the
ledger wraps fails here instead of reading 0 in the next traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import ledger  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pinned_spec_reproduces_its_digest(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    result = workload.run_pinned(tmp_path / "pinned")
    assert result.failed == 0, f"{name}: {result.failed} pinned tasks failed"
    assert result.tasks == result.expected, (
        f"{name}: executed {result.tasks} pinned tasks, expected {result.expected}"
    )
    assert result.digest == workloads.PINNED_DIGESTS[name], (
        f"{name}: pinned digest {result.digest[:12]} != {workloads.PINNED_DIGESTS[name][:12]}"
    )


#: Layers the pinned ``multiphase-capped`` spec must reach through the ledger's hooks.
ENGINE_SPANS = (
    "maxis.capped-greedy-first-fit.solve_s",
    "correspondence.s",
    "conflict_graph.build_s",
    "conflict_graph.remove_s",
    "conflict_graph.freeze_s",
)


def test_engine_routes_through_the_ledger_hooks(tmp_path):
    workload = workloads.WORKLOADS["multiphase-capped"](workloads.DEFAULT_SEED, tmp_path)
    trace = ledger.Ledger()
    with ledger.installed(trace), trace.root():
        result = workload.run_pinned(tmp_path / "pinned")
    counts = trace.counts
    assert counts["maxis.calls"] == counts["reduction.phases"] > 0, dict(counts)
    assert counts["conflict_graph.builds"] == result.tasks > 0, dict(counts)
    recorded = {name for name, _parent, _start, _end in trace.spans}
    assert set(ENGINE_SPANS) <= recorded, f"spans never recorded: {set(ENGINE_SPANS) - recorded}"
