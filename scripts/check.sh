#!/bin/sh
# Full local gate: tier-1 tests + perf-harness smoke run with schema check
# + the benchmark's own tests + the campaign smoke (scripts/smoke.py).
# Equivalent to `make check`; kept as a plain script for environments
# without make.
set -eu
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The coverage gate runs the full suite itself (propagating pytest's exit
# code) and then enforces the line-coverage floor over
# src/repro/{core,maxis,graphs} — so tests run once, not twice.
# SKIP_COVERAGE=1 falls back to the plain (faster) tier-1 run.
if [ "${SKIP_COVERAGE:-0}" = "1" ]; then
    echo "== tier-1 tests (coverage skipped: SKIP_COVERAGE=1) =="
    python -m pytest -x -q
else
    echo "== tier-1 tests + coverage gate =="
    python scripts/coverage.py
fi

echo "== bench smoke =="
python -m repro bench --smoke --out-dir .bench-smoke --repeats 1
python scripts/validate_bench.py .bench-smoke

echo "== perfbench tests =="
python -m pytest perfbench/tests -q

echo "== campaign smoke =="
python scripts/smoke.py

echo "check: OK"
