#!/usr/bin/env python3
"""The Theorem 1.1 campaign benchmark: one workload per call, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-mix --seed 2019 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
in reference-host time: every time is scaled by a fixed calibration loop
timed just before it (``host_scale``).
``--trace 1`` runs the same operations, half of them untraced and half
with the layer ledger's wrappers installed (see ``ledger.py``), prints one
layer table that sums to the traced wall time, and reports the per-layer
metrics.  Every run checks its outputs (``checks.py``) outside the timed
region; the last line of standard output is the JSON result.

Stores are written under ``.perfbench/`` in the checkout and removed at
the end of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("kernel-mix", "multiphase-capped", "resume-large")

#: An untraced run sets up at least this often and for at least
#: ``SETUP_SECONDS``; ``setup_s`` reports the median set-up.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: Fresh interpreters that time the program's import; ``setup_s`` adds
#: their median.
IMPORT_REPEATS = 5
#: Per-task latency samples an untraced run must hold, so that p99 has at
#: least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
#: Seconds one pass of :func:`calibration_seconds` takes on the reference
#: host.  Every reported time is scaled to that host (see ``host_scale``).
REFERENCE_CALIBRATION_S = 0.010


def calibration_seconds() -> float:
    """Time one pass of a fixed pure-Python loop: dict, set and sort work like the program's.

    A shared host changes speed by a third within seconds and stays in one
    state for tens of seconds, so raw wall times of the same code spread
    across runs by as much.  The program slows with this loop, so times
    scaled by it hold steady (see ``host_scale``).
    """
    start = time.perf_counter()
    rng = random.Random(1)
    adjacency: Dict[int, set] = {vertex: set() for vertex in range(600)}
    for _ in range(3000):
        a, b = rng.randrange(600), rng.randrange(600)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    blocked: set = set()
    for vertex in sorted(adjacency, key=lambda v: (len(adjacency[v]), v)):
        if vertex not in blocked:
            blocked |= adjacency[vertex]
            blocked.add(vertex)
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def host_scale() -> float:
    """Reference-host seconds per second measured now: the calibration loop's reference over its time."""
    return REFERENCE_CALIBRATION_S / calibration_seconds()


def benchmark_json() -> dict:
    """The benchmark's declaration: workloads, metrics, units, bounds and run length."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} not found; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def parse_args(argv: Sequence[str], run_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="campaign seed (default: the seed the digests are pinned at)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--populate", metavar="DIR",
                        help="internal: build the resume-large store in DIR and exit")
    args = parser.parse_args(argv)
    if args.workload is None and args.populate is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'repro'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def import_seconds(repeats: int) -> float:
    """Median time a fresh interpreter takes to import ``repro.runtime``."""
    probe = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); start = time.perf_counter(); "
        "import repro.runtime; print(time.perf_counter() - start)"
    )
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(repeats)
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_operations(workload, seconds: float, min_samples: int = 0) -> List:
    """Run operations 0, 1, … for ``seconds`` and until ``min_samples`` latencies are held."""
    results = []
    start = time.perf_counter()
    while True:
        scale = host_scale()
        result = workload.operation(len(results))
        result.scale = scale
        results.append(result)
        samples = sum(len(result.gaps_s) for result in results)
        if time.perf_counter() - start >= seconds and samples >= min_samples:
            return results


def end_to_end(results: Sequence, setup_s: float, peak_mb: float) -> Dict[str, tuple]:
    """Every end-to-end metric over the whole run, in reference-host time.

    Totals and means rather than medians: the host switches speed within a
    run, and a median over a two-speed mixture jumps between the speeds.
    """
    gaps = [gap * r.scale for r in results for gap in r.gaps_s]
    return {
        "tasks_per_s": (sum(r.tasks for r in results) / sum(r.run_s * r.scale for r in results), "tasks/s"),
        "task_ms.p50": (1000 * percentile(gaps, 0.50), "ms"),
        "task_ms.p99": (1000 * percentile(gaps, 0.99), "ms"),
        "resume_s": (statistics.fmean(r.resume_s * r.scale for r in results), "s"),
        "report_s": (statistics.fmean(r.report_s * r.scale for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def main(argv: Sequence[str]) -> int:
    declared = benchmark_json()
    args = parse_args(argv, declared["run_seconds"])
    import_program()
    import checks
    import ledger as layer_ledger
    import workloads

    seed = args.seed if args.seed is not None else workloads.DEFAULT_SEED
    if args.populate is not None:
        workloads.populate(Path(args.populate), workloads.resume_spec(seed))
        return 0

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](seed, workdir)
    # The first pass in a process runs 5-8% slow; discard it.
    calibration_seconds()
    try:
        setups: List[float] = []
        while not setups or not args.trace and (
            len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS
        ):
            # A set-up lasts seconds, long enough for the host to change
            # speed: scale it by the mean of a calibration on either side.
            before = host_scale()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            setups.append(elapsed * (before + host_scale()) / 2)
        setup_s = statistics.median(setups) + (
            0.0 if args.trace else host_scale() * import_seconds(IMPORT_REPEATS)
        )

        if args.trace:
            untraced = run_operations(workload, args.seconds / 2)
            ledger = layer_ledger.Ledger()
            workload.ledger = ledger
            with layer_ledger.installed(ledger):
                traced = run_operations(workload, args.seconds / 2)
            workload.ledger = None
            results = untraced + traced
        else:
            results = run_operations(workload, args.seconds, MIN_LATENCY_SAMPLES)
        peak_mb = peak_rss_mb()

        problems = checks.run_problems(workload, results, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(result.tasks for result in results)
    failed = sum(result.failed for result in results) + (1 if problems else 0)
    samples = sum(len(result.gaps_s) for result in results)
    print(f"workload {args.workload}  seed {seed}  operations {len(results)}  "
          f"tasks {attempted}  latency samples {samples}  "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})  "
          f"first digest {results[0].digest}")
    print(f"host scale (reference-host s per measured s): median "
          f"{statistics.median(r.scale for r in results):.3f}, "
          f"range {min(r.scale for r in results):.3f}..{max(r.scale for r in results):.3f}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        print(layer_ledger.layer_table(ledger))
        per_layer = [(entry["name"], entry["unit"]) for entry in declared["per_layer"]]
        values = layer_ledger.layer_metrics(
            ledger, per_layer, len(traced), sum(r.wall_s * r.scale for r in untraced),
            len(untraced), scale=statistics.fmean(r.scale for r in traced),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer}
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(results, setup_s, peak_mb).items()
        }
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
