PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench diff matrix scan chaos serve-smoke lint determinism \
	imports e2ebench-selftest ci

## Tier-1 test suite (fast; micro-benchmarks excluded via the bench marker).
## PYTEST_ARGS lets CI bolt on reporting flags (--junitxml, --durations)
## without forking the invocation.
test:
	$(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

## Run the simulator micro-benchmarks and record BENCH_<date>.json.
bench:
	$(PYTHON) benchmarks/record_baseline.py

## Differential equivalence suites: every fast path against its retained
## reference oracle (CPU engine vs reference interpreter, batched attack
## kernels vs scalar attacks, batched vs scalar power instrument, numpy
## Gaussian draws and CPA vs their scalar formulas, memoized vs reference
## speculation explorer).
diff:
	$(PYTHON) -m pytest -q tests/test_differential.py \
		tests/test_attack_differential.py tests/test_power_differential.py \
		tests/test_rng_cpa_differential.py tests/test_spec_memo.py

## Quick evaluation matrix (Figure 1) from the CLI.
matrix:
	$(PYTHON) -m repro figure1

## Speculation scan: sweep the gadget corpus across the quick config grid
## with the multi-path explorer (memoized engine by default; add
## --no-memo for the byte-identical reference lane CI cross-checks
## against); non-zero exit on any expectation violation; leaves
## scan-report.{json,txt} for the CI artifact.
scan:
	$(PYTHON) -m repro scan --no-cache --check \
		--report-json scan-report.json --report-txt scan-report.txt

## Chaos suite: inject crash/hang/raise/corrupt faults into the runner's
## own workers (process level) and SIGKILL whole fleet members / plant
## lease wreckage (host level), proving recovery end to end.
chaos:
	$(PYTHON) -m pytest -q --run-chaos -m chaos \
		tests/test_chaos.py tests/test_service_chaos.py

## Evaluation-as-a-service smoke: a 2-worker fleet drains the quick
## matrix under host-kill chaos; gates on completion and on every
## payload fingerprint matching a fault-free direct run.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Lint gate: ruff when installed (pyproject [tool.ruff]), else the
## stdlib-only fallback implementing the same high-signal rule subset.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "ruff check ."; ruff check .; \
	else \
		echo "ruff not installed; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py; \
	fi

## Determinism smoke: the seed-invariance tests under a fixed and then a
## different PYTHONHASHSEED — results must not depend on hash ordering.
determinism:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -q tests/test_runner.py -k HashSeed
	PYTHONHASHSEED=12345 $(PYTHON) -m pytest -q tests/test_runner.py -k HashSeed

## Import footprint: each verb loads only the modules it runs (fresh
## interpreters), and the lazy package inits keep their public surface.
imports:
	$(PYTHON) -m pytest -q tests/test_import_footprint.py \
		tests/test_lazy_packages.py

## Self-tests of the cold end-to-end benchmark harness (e2ebench/).
e2ebench-selftest:
	$(PYTHON) -m unittest discover -s e2ebench -p 'test_*.py'

## Everything CI gates on, runnable locally before pushing.
ci: lint test determinism
	@echo "local CI mirror passed"
