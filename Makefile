# Developer entry points. `make test` is the tier-1 gate; `make bench-smoke`
# runs the perf harness on the smallest workload and validates the JSON
# schema; `make perfbench-test` runs the end-to-end benchmark's own tests;
# `make smoke` runs a tiny committed campaign spec through every
# execution shape (sharded, pooled, resumed, compacted, traced, supervised
# under injected faults) and asserts each lands on the serial digest.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

BENCH_SMOKE_DIR := .bench-smoke

.PHONY: test bench bench-smoke perfbench-test smoke campaign-demo coverage check install clean

test:
	$(PYTHON) -m pytest -x -q

# Line-coverage gate over src/repro/{core,maxis,graphs} (fail-under floor
# lives in scripts/coverage.py; uses pytest-cov when installed, stdlib
# trace otherwise).  Runs the full test suite itself, so `check` does not
# also need the plain `test` target.
coverage:
	$(PYTHON) scripts/coverage.py

bench:
	$(PYTHON) -m repro bench --out-dir .

bench-smoke:
	$(PYTHON) -m repro bench --smoke --out-dir $(BENCH_SMOKE_DIR) --repeats 1
	$(PYTHON) scripts/validate_bench.py $(BENCH_SMOKE_DIR)

# The tests of perfbench/ (BENCHMARK.json's harness).  They resolve every
# ledger hook in src/ by name, so a rename there fails here instead of in
# the next benchmark run.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# The 8-task campaign of examples/campaign_smoke.json: one serial
# reference, then 2-shard merged, warm pool, kill+resume, compacted,
# traced and supervised-under-faults legs; every leg's full-row and
# incremental digests must equal the serial one.
smoke:
	$(PYTHON) scripts/smoke.py

# The committed ≥200-task demo campaign (examples/campaign_demo.json).
campaign-demo:
	$(PYTHON) -m repro campaign run --spec examples/campaign_demo.json --out .campaign-demo --workers 4
	$(PYTHON) -m repro campaign report --out .campaign-demo

check: coverage bench-smoke perfbench-test smoke

# pip's PEP-517 editable path needs the `wheel` package; fall back to the
# legacy develop install on environments that ship setuptools without it.
install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

clean:
	rm -rf $(BENCH_SMOKE_DIR) .smoke .campaign-demo .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
