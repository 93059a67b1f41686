#!/bin/sh
# Full local gate, and the one list of its steps: tier-1 tests under the
# coverage gate, the perf-harness smoke run with its schema check, the
# benchmark's own tests and the campaign smoke (scripts/smoke.py).
# `make check` runs this script; run it directly on hosts without make.
# The interpreter is $PYTHON (the Makefile's variable), else `python`.
set -eu
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
PYTHON="${PYTHON:-python}"

# The coverage gate runs the full suite itself (propagating pytest's exit
# code) and then enforces the line-coverage floor over all of src/repro —
# so tests run once, not twice.
echo "== tier-1 tests + coverage gate =="
$PYTHON scripts/coverage.py

echo "== bench smoke =="
$PYTHON -m repro bench --smoke --out-dir .bench-smoke --repeats 1
$PYTHON scripts/validate_bench.py .bench-smoke

echo "== perfbench tests =="
$PYTHON -m pytest perfbench/tests -q

echo "== campaign smoke =="
$PYTHON scripts/smoke.py

echo "check: OK"
