# Convenience targets for the reproduction.

PY ?= python3

.PHONY: install test bench bench-static bench-delta \
	bench-jit ci lint-kernel experiments experiments-full clean

install:
	pip install -e .

test:
	$(PY) -m pytest tests/

# Static lint of the built kernel image (docs/static-analysis.md);
# exit status is the number of findings.
lint-kernel:
	PYTHONPATH=src $(PY) -m repro.tools.kerncheck
	PYTHONPATH=src $(PY) -m repro.tools.kerncheck --format json \
		> /dev/null

# What .github/workflows/ci.yml runs: lint (when available) + the
# kernel-image linter + tier-1 + the campaign benchmark's own tests
# (incl. a --smoke run checked against the pinned digests) + a traced
# --smoke run whose result line must be strict JSON with every declared
# per-layer metric finite + the smoke studies.  The smoke benches write
# under the git-ignored results/, so the committed BENCH_*.json records
# stay as their full runs left them.
ci:
	@if $(PY) -m flake8 --version >/dev/null 2>&1; then \
		$(PY) -m flake8 src tests; \
	else \
		echo "flake8 not installed; skipping lint"; \
	fi
	$(MAKE) lint-kernel
	@if $(PY) -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PY) -m pytest -x -q --cov=repro \
			--cov-report=term --cov-fail-under=65; \
	else \
		echo "pytest-cov not installed; running without coverage"; \
		PYTHONPATH=src $(PY) -m pytest -x -q; \
	fi
	PYTHONPATH=src $(PY) -m pytest benchmarks/campaign -q
	@mkdir -p results
	$(PY) benchmarks/campaign/run.py --smoke --trace 1 \
		| tee results/bench_trace.smoke.txt
	$(PY) scripts/check_trace_line.py results/bench_trace.smoke.txt
	PYTHONPATH=src $(PY) -m repro.experiments.recovery_study --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.static_validation --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.static_propagation --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.trace_validation --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.fault_model_study --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.fabric_validation --smoke
	PYTHONPATH=src $(PY) -m repro.experiments.delta_validation --smoke
	PYTHONPATH=src $(PY) benchmarks/bench_jit.py --smoke --gate 3.0 \
		--output results/BENCH_jit.smoke.json
	PYTHONPATH=src $(PY) benchmarks/bench_delta.py --smoke \
		--max-fraction 0.5 --output results/BENCH_delta.smoke.json

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Whole-image static-analysis timings -> BENCH_static.json.
bench-static:
	PYTHONPATH=src $(PY) benchmarks/bench_static.py

# Delta-campaign reuse on a one-function edit -> BENCH_delta.json
# (gates: delta == scratch bit-identical, re-run fraction <= 0.5,
# wall-clock speedup >= 1).
bench-delta:
	PYTHONPATH=src $(PY) benchmarks/bench_delta.py --max-fraction 0.5

# Translated-execution speedup -> BENCH_jit.json (gate: >= 3x over
# the interpreter on the syscall workload, bit-identical).
bench-jit:
	PYTHONPATH=src $(PY) benchmarks/bench_jit.py --gate 3.0

# EXPERIMENTS.md at the default (quick) scale; standard takes ~1 h.
experiments:
	$(PY) scripts/run_experiments.py quick EXPERIMENTS.md

experiments-full:
	$(PY) scripts/run_experiments.py standard EXPERIMENTS.md

clean:
	rm -rf .pytest_cache .benchmarks results
	find . -name __pycache__ -type d -exec rm -rf {} +
