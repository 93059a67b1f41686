"""Stand-alone perf harness runner.

Times the conflict-graph builder (mask vs. legacy) and the MIS
approximators on the standard workload families, and writes
``BENCH_conflict_graph.json`` / ``BENCH_maxis.json``.  The implementation
lives in :mod:`repro.bench` so that the ``repro bench`` CLI subcommand and
this script share one code path.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--smoke] [--out-dir DIR] [--repeats N]
"""

from __future__ import annotations

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main())
