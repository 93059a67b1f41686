"""The benchmark's pin gate inside tier-1: every workload's pinned spec reproduces its digest.

``perfbench/checks.py`` runs the same gate during a benchmark run.  Here
it runs with the tests, so a change to any kernel's output (one different
selection is enough) fails ``pytest`` instead of the next benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

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
