# Test and benchmark entry points.
#
#   make test-fast    tier-1: everything except the opt-in sweeps (~15s)
#   make test-matrix  the exhaustive scenario-matrix sweeps (+ slow cells)
#                     (REPRO_MATRIX_PARALLEL=N shards every matrix sweep's
#                     cells over N worker processes; results are
#                     byte-identical to serial runs)
#   make test-all     both of the above
#   make bench-gate   one short run (5 s, seed 0) of each of the five bench/
#                     workloads; exits non-zero if any operation fails
#                     safety, misses its target height or is not
#                     deterministic across rounds (or if the calibration
#                     kernel finds the host too unsteady to time anything).
#                     Timings are printed, not gated: ledger /
#                     ledger-compare are the before/after tools
#                     (docs/performance.md)
#   make ledger       the end-to-end × per-layer performance ledger: all five
#                     bench/ workloads -> bench/out/ledger.json (untracked;
#                     see bench/README.md)
#   make ledger-compare PARENT=a.json CHANGE=b.json
#                     apply BENCHMARK.json's bounds to two ledger files
#                     (exits non-zero on a regression)
#   make ledger-pairs PARENT=<checkout> CHANGE=<checkout> W=<workload> [N=10] [SEED0=7000]
#                     the standing rule for a performance claim, automated:
#                     N alternating parent/change pairs of the unmodified
#                     `python3 -m bench --workload W --seed S --seconds 15
#                     --trace 0`, a fresh seed per pair from SEED0 up;
#                     prints every run, per-side median and quartiles,
#                     pairs won, and whether the three modelled metrics
#                     were bit-identical (tools/ledger_pairs.py; takes
#                     2 x N x ~25 s)
#   make test-corpus  replay the committed fuzz reproducers in
#                     tests/corpus and check the files are what
#                     tests/corpus/regenerate.py writes (also part of
#                     test-fast; named target for the PR-blocking CI step)
#   make fuzz         a short local fuzz campaign (SEED=n ITERATIONS=n to
#                     override; see docs/fuzzing.md)
#   make lint         ruff over src/tests/examples (critical rules plus
#                     bugbear and a curated modernisation subset — see
#                     ruff.toml) where ruff is installed (CI); elsewhere
#                     the stdlib unused-import audit tools/unused_imports.py,
#                     so the step runs in an image without ruff too
#   make import-time  the 15 largest cumulative entries of
#                     `python -X importtime -c "import repro.cli"` — what
#                     a cold `repro run` pays before it simulates anything
#                     (networkx / numpy / multiprocessing must not appear;
#                     see "Cold start and footprint" in docs/performance.md)
#   make analyze      detlint: the determinism static analyzer over
#                     src/repro (AST-only, < 10s;
#                     PR-blocking in CI — see docs/analysis.md)
#   make reach        the reachability audit (tools/reach.py): traces the
#                     entry points (benchmarks/, examples/, python3 -m bench,
#                     every repro subcommand over its registries) and the
#                     tests, then lists the src/repro functions nothing
#                     reaches, those only tests reach, the package __all__
#                     names nothing outside the package reads, the defaulted
#                     parameters the entry points pass only their default
#                     (or never), and the attributes nothing reads; exits
#                     1 on an entry tools/reach_allow.txt does not accept or
#                     on an allowlist line that matches nothing (~2 min)
#   make footprint    the peak RSS (MiB) of one round of each of the five bench/
#                     workloads at seed 0, each in a fresh process
#                     (`python3 -m bench --child round --workload W --seed 0`,
#                     the child behind the ledger's peak_rss_mb; ~10 s in
#                     total; printed, not gated, in CI's lint job)
#   make loc          src/ line count — `wc -l` over src/repro/**/*.py, per
#                     package and in total — the number the standing gate
#                     asks every PR to quote as its net src/ delta
#                     (printed, not gated, in CI's lint job)
#
# The default pytest run (pytest.ini addopts) equals test-fast; the matrix
# sweeps are the opt-in CI job every scale/perf PR should also run.

PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m pytest
PYTHON := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test-fast test-matrix test-all test-corpus fuzz bench-gate ledger ledger-compare ledger-pairs footprint lint analyze reach import-time loc

test-fast:
	$(PYTEST) -x -q

test-corpus:
	$(PYTEST) -q tests/corpus

SEED ?= 0
ITERATIONS ?= 20
fuzz:
	$(PYTHON) -m repro.cli fuzz --seed $(SEED) --iterations $(ITERATIONS)

lint:
	@if python -c "import ruff" 2>/dev/null; then \
		python -m ruff check src tests examples; \
	else \
		echo "ruff is not installed: running tools/unused_imports.py instead"; \
		python tools/unused_imports.py src tests examples; \
	fi

analyze:
	$(PYTHON) -m repro.analysis src/repro

reach:
	python tools/reach.py

loc:
	@for pkg in $$(find src/repro -mindepth 1 -maxdepth 1 -type d ! -name __pycache__ | sort); do \
		printf '%7d %s\n' "$$(find $$pkg -name '*.py' | xargs cat | wc -l)" "$$pkg"; \
	done; \
	printf '%7d %s\n' "$$(cat src/repro/*.py | wc -l)" "src/repro/*.py"; \
	printf '%7d %s\n' "$$(find src/repro -name '*.py' | xargs cat | wc -l)" "total"

import-time:
	$(PYTHON) -X importtime -c "import repro.cli" 2>&1 | sort -t'|' -k2,2n | tail -15

test-matrix:
	$(PYTEST) -q -m "matrix or slow" tests/testkit

test-all: test-fast test-matrix

BENCH_WORKLOADS := steady-n25 viewchange-n25 scale-n100 lossy-openloop-n7 matrix-n7
bench-gate:
	@set -e; for workload in $(BENCH_WORKLOADS); do \
		python3 -m bench --workload $$workload --seed 0 --seconds 5 --trace 0; \
	done

ledger:
	python3 -m bench --out bench/out/ledger.json

footprint:
	@set -e; for workload in $(BENCH_WORKLOADS); do \
		rss=$$(python3 -m bench --child round --workload $$workload --seed 0); \
		printf '%-18s %7.2f MiB\n' "$$workload" "$$rss"; \
	done

ledger-compare:
	python3 -m bench --compare $(PARENT) $(CHANGE)

N ?= 10
SEED0 ?= 7000
ledger-pairs:
	python3 tools/ledger_pairs.py --parent $(PARENT) --change $(CHANGE) --workload $(W) --pairs $(N) --seed $(SEED0)
