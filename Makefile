# Convenience targets for the repro package.

PYTHON ?= python

.PHONY: install test shapes shapes-quick bench reproduce reproduce-paper examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 suite, run from the tree as CI runs it.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The figure-shape tests of benchmarks/ (TINY scale by default).
shapes:
	REPRO_HISTORY=0 PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

shapes-quick:
	REPRO_BENCH_SCALE=quick REPRO_HISTORY=0 PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

# The repository benchmark (BENCHMARK.json), as CI's perf-ab job runs it.
bench:
	python3 bench/run.py --seconds 100 --trace 0

# The paper's evaluation: every table and figure (repro reproduce).
reproduce:
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale quick

reproduce-paper:
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale paper --out results/

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scheduler_comparison.py spmv --synthetic
	$(PYTHON) examples/dram_design_space.py

clean:
	rm -rf .repro-results benchmarks/.benchcache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
