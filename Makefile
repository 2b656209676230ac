# Test and benchmark entry points.
#
#   make test-fast    tier-1: everything except the opt-in sweeps (~15s)
#   make test-matrix  the exhaustive scenario-matrix sweeps (+ slow cells)
#                     (REPRO_MATRIX_PARALLEL=N shards every matrix sweep's
#                     cells over N worker processes; results are
#                     byte-identical to serial runs)
#   make test-all     both of the above
#   make bench        full hot-path benchmark suite -> BENCH_hotpath.json
#                     (exits non-zero if a speedup gate regresses; the
#                     tracked JSON is only rewritten when gate verdicts or
#                     the benchmark roster change — fresh samples go to the
#                     untracked BENCH_hotpath.latest.json)
#   make bench-smoke  quick end-to-end check of the benchmark harness
#   make bench-gate   validate gates.*.passed in the committed
#                     BENCH_hotpath.json without running benchmarks
#   make ledger       the end-to-end × per-layer performance ledger: all five
#                     bench/ workloads -> bench/out/ledger.json (untracked;
#                     see bench/README.md)
#   make ledger-compare PARENT=a.json CHANGE=b.json
#                     apply BENCHMARK.json's bounds to two ledger files
#                     (exits non-zero on a regression)
#   make test-corpus  replay the committed fuzz reproducers in
#                     tests/corpus (also part of test-fast; named target
#                     for the PR-blocking CI step)
#   make test-workload the workload-engine lane: open-loop determinism,
#                     txpool backpressure, SLO metrics, Prometheus
#                     fallback (also part of test-fast; named CI lane)
#   make test-impairments the lossy-medium lane: wire impairment model,
#                     reliable-delivery sublayer, loss-budget liveness,
#                     impaired-run determinism (also part of test-fast;
#                     named CI lane — see docs/impairments.md)
#   make fuzz         a short local fuzz campaign (SEED=n ITERATIONS=n to
#                     override; see docs/fuzzing.md)
#   make lint         ruff over src/tests/examples (critical rules plus
#                     bugbear and a curated modernisation subset — see
#                     ruff.toml)
#   make import-time  the 15 largest cumulative entries of
#                     `python -X importtime -c "import repro.cli"` — what
#                     a cold `repro run` pays before it simulates anything
#                     (networkx / numpy / multiprocessing must not appear;
#                     see "Cold start and footprint" in docs/performance.md)
#   make analyze      detlint: the determinism & registry-coherence
#                     static analyzer over src/repro (AST-only, < 10s;
#                     PR-blocking in CI — see docs/analysis.md)
#
# The default pytest run (pytest.ini addopts) equals test-fast; the matrix
# sweeps are the opt-in CI job every scale/perf PR should also run.

PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m pytest
PYTHON := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test-fast test-matrix test-all test-corpus test-recovery test-workload test-impairments fuzz bench bench-smoke bench-gate ledger ledger-compare lint analyze import-time

test-fast:
	$(PYTEST) -x -q

test-corpus:
	$(PYTEST) -q tests/corpus

test-recovery:
	$(PYTEST) -q -m recovery

test-workload:
	$(PYTEST) -q tests/workload

test-impairments:
	$(PYTEST) -q tests/net/test_impairment.py tests/property/test_property_impairment.py \
		tests/fuzz/test_planted_mutants.py::test_retransmission_giveup_mutant_is_found_and_shrunk

SEED ?= 0
ITERATIONS ?= 20
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(SEED) --iterations $(ITERATIONS)

lint:
	python -m ruff check src tests examples

analyze:
	$(PYTHON) -m repro.analysis src/repro

import-time:
	$(PYTHON) -X importtime -c "import repro.cli" 2>&1 | sort -t'|' -k2,2n | tail -15

test-matrix:
	$(PYTEST) -q -m "matrix or slow" tests/testkit

test-all: test-fast test-matrix

bench:
	$(PYTHON) -m repro.perf

bench-smoke:
	$(PYTEST) -q -m bench tests/perf

bench-gate:
	$(PYTHON) -m repro.perf --gate-check

ledger:
	python3 -m bench --out bench/out/ledger.json

ledger-compare:
	python3 -m bench --compare $(PARENT) $(CHANGE)
