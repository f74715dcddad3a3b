# Convenience targets for the repro package.

PYTHON ?= python

.PHONY: install test bench reproduce reproduce-paper examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 suite, run from the tree as CI runs it.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The repository benchmark (BENCHMARK.json), as CI's perf-ab job runs it.
bench:
	python3 bench/run.py --seconds 100 --trace 0

# The paper's evaluation: every table and figure (repro reproduce).
reproduce:
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale quick

# The paper's claims at PAPER scale, gated by their bands, as CI's
# paper-claims job runs them: into an empty cache (a code change does not
# move the cache key), writing results/accuracy.json; then EXPERIMENTS.md's
# claims block is rendered from that file.
reproduce-paper:
	rm -rf .repro-paper
	PYTHONPATH=src $(PYTHON) -m repro reproduce --scale paper --seeds 1 2 --workers 2 \
		--cache-dir .repro-paper --out results/
	PYTHONPATH=src $(PYTHON) tests/test_accuracy.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scheduler_comparison.py spmv --synthetic
	$(PYTHON) examples/dram_design_space.py

clean:
	rm -rf .repro-results .repro-paper .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
