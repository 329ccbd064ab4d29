# Convenience targets; CI should run `make check`.

.PHONY: all build test test-flow test-warmstart test-metamorphic test-serve \
	test-incremental test-topk test-hierarchy test-parallel-heavy \
	fuzz-smoke fuzz-incremental fuzz-topk fuzz-hierarchy coverage fmt \
	check bench-phases bench-retarget bench-warmstart bench-serve \
	bench-incremental bench-topk bench-hierarchy bench-parallel perfbench \
	perfbench-trace clean

all: build

build:
	dune build

test:
	dune runtest

# The flow-layer suites on their own: solver invariants (conservation,
# max-flow = min-cut, residuals, reset_flow) and the retarget
# differential/accounting contracts.
test-flow:
	dune exec test/test_main.exe -- test flow
	dune exec test/test_main.exe -- test flow-invariants
	dune exec test/test_main.exe -- test flow-retarget

# The warm-start suite on its own: excess draining, warm vs reset
# differentials for both solvers, and the warm accounting contracts.
test-warmstart:
	dune exec test/test_main.exe -- test flow-warmstart

# The deterministic metamorphic suite (generators, relations,
# shrinker, reproducers, mutation self-tests).
test-metamorphic:
	dune exec test/test_main.exe -- test metamorphic

# The serving suite on its own: snapshot round trips, the LRU model,
# cache accounting, the live-socket differential corpus and the
# protocol fault injection.
test-serve:
	dune exec test/test_main.exe -- test serve

# The incremental suite on its own: the delta-stream differential
# battery (patched session vs rebuild, bit-identical per batch), the
# dynamic-core maintenance checks, the delta generator/shrinker model
# tests and the arc-surgery flow repairs.
test-incremental:
	dune exec test/test_main.exe -- test incremental

# The top-k suite on its own: the brute-force oracle differential
# (h in {2,3}, k in {1,2,3}, pruning on and off bit-identical), the
# canonical-region fixtures and the disjointness/monotonicity laws.
test-topk:
	dune exec test/test_main.exe -- test topk

# The hierarchy suites on their own: the union-of-argmax oracle
# differential (prepared/fresh/pool widths bit-identical), the
# configuration bit-equality battery, the probe-count agreement check
# and the sorted-prefix properties, plus the single-CDS LD suite the
# decomposition shares its probe loop with.
test-hierarchy:
	dune exec test/test_main.exe -- test hierarchy
	dune exec test/test_main.exe -- test ld-decomposition

# The whole battery re-run with a 4-domain default pool: DSD_DOMAINS
# governs every solver's default width, so the round-synchronous peel,
# the striped component probes and the CLI goldens all execute against
# a real multi-domain pool even on paths that don't pass ?pool
# explicitly.  Everything must stay bit-identical — the goldens diff
# the same expected files.  --force because the environment variable
# is invisible to dune's dependency tracking.
test-parallel-heavy:
	DSD_DOMAINS=4 dune build @runtest --force

# A real fuzzing burst: fresh random cases against every relation,
# bounded by wall clock so `make check` stays fast.  Uses an
# arbitrary fixed seed; re-roll with FUZZ_SEED=n.
FUZZ_SEED ?= 42
fuzz-smoke:
	dune exec bin/dsd.exe -- fuzz --cases 400 --seed $(FUZZ_SEED) --time-budget 15

# A focused burst on the incremental relations only: delta scripts
# round-tripped through the serve codec against a rebuild oracle, and
# the edge-deletion monotonicity law.
fuzz-incremental:
	dune exec bin/dsd.exe -- fuzz --cases 200 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation delta-equals-rebuild
	dune exec bin/dsd.exe -- fuzz --cases 200 --seed $(FUZZ_SEED) --time-budget 5 \
		--relation edge-deletion-monotonicity

# A focused burst on the top-k relations only: region disjointness,
# prefix stability under growing k, and top-1 = CDS density.
fuzz-topk:
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation topk-disjointness
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation topk-prefix-stability
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 5 \
		--relation top1-equals-cds

# A focused burst on the hierarchy relations only: chain nesting with
# slow-count marginal re-derivation, B_1 = the canonical CDS, and the
# prepared/fresh/cold bit-equality of the probe loop.
fuzz-hierarchy:
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-nesting
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-level1-equals-cds
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-prepared-equals-fresh

# Line coverage via bisect_ppx, skipped gracefully when the ppx is not
# installed (the toolchain image does not bake it in, like ocamlformat).
coverage:
	@if command -v ocamlfind >/dev/null 2>&1 && ocamlfind query bisect_ppx >/dev/null 2>&1; then \
		find . -name 'bisect*.coverage' -delete; \
		dune runtest --instrument-with bisect_ppx --force && \
		bisect-ppx-report summary; \
	else \
		echo "bisect_ppx not installed; skipping coverage"; \
	fi

# Formatting is checked only when ocamlformat is installed — the
# toolchain image does not bake it in.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping @fmt"; \
	fi

# fmt runs first so a formatting failure is reported before the long
# build/test/bench steps.  The warmstart smoke run feeds the compare
# gate (warm-started probes must never need more augmenting paths than
# reset probes); the serve smoke run feeds the cached-latency gate (a
# repeated identical request must be >= 5x faster than the cold one).
check:
	$(MAKE) fmt
	dune build @default @runtest
	$(MAKE) test-serve
	$(MAKE) test-incremental
	$(MAKE) test-topk
	$(MAKE) test-hierarchy
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-incremental
	$(MAKE) fuzz-topk
	$(MAKE) fuzz-hierarchy
	dune exec bench/main.exe -- --only parallel,retarget,warmstart,serve,incremental,topk,hierarchy --smoke
	dune exec bench/compare.exe -- BENCH_parallel.json
	dune exec bench/compare.exe -- BENCH_warmstart.json
	dune exec bench/compare.exe -- BENCH_serve.json
	dune exec bench/compare.exe -- BENCH_incremental.json
	dune exec bench/compare.exe -- BENCH_topk.json
	dune exec bench/compare.exe -- BENCH_hierarchy.json

# Per-phase observability breakdown (Dsd_obs spans/counters).
bench-phases:
	dune exec bench/main.exe -- --only phases

# Flow-network builds vs O(V) re-alphas (writes BENCH_retarget.json).
bench-retarget:
	dune exec bench/main.exe -- --only retarget

# Warm vs reset flow retargeting (writes BENCH_warmstart.json), then
# the regression gate over the fresh numbers.
bench-warmstart:
	dune exec bench/main.exe -- --only warmstart
	dune exec bench/compare.exe -- BENCH_warmstart.json

# Cold vs prepared vs cached request latency over a live socket
# (writes BENCH_serve.json), then the >= 5x cached-latency gate.
bench-serve:
	dune exec bench/main.exe -- --only serve
	dune exec bench/compare.exe -- BENCH_serve.json

# Patch-vs-recompute on a sliding edge window (writes
# BENCH_incremental.json), then the <= 0.5x batch-cost gate.
bench-incremental:
	dune exec bench/main.exe -- --only incremental
	dune exec bench/compare.exe -- BENCH_incremental.json

# Pruned vs unpruned top-k extraction (writes BENCH_topk.json), then
# the bit-identical-regions and never-slower gate.
bench-topk:
	dune exec bench/main.exe -- --only topk
	dune exec bench/compare.exe -- BENCH_topk.json

# Prepared vs fresh-build density-friendly hierarchy (writes
# BENCH_hierarchy.json), then the bit-identical-chain / B_1 = CDS and
# never-slower gate.
bench-hierarchy:
	dune exec bench/main.exe -- --only hierarchy
	dune exec bench/compare.exe -- BENCH_hierarchy.json

# Domain-pool speedup sweep over the pooled phases (writes
# BENCH_parallel.json), then the >= 2x at 4 domains gate — skipped
# automatically on boxes whose cores_detected < 4.
bench-parallel:
	dune exec bench/main.exe -- --only parallel
	dune exec bench/compare.exe -- BENCH_parallel.json

# The repository benchmark (perfbench/, declared in BENCHMARK.json):
# every workload untraced at SEED, end-to-end metrics only.  Runs that
# overlap another CPU-heavy job are not comparable.
SEED ?= 1
perfbench:
	for w in exact_batch approx_large serve_stream; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds 15 --trace 0 || exit 1; \
	done

# One workload traced at SEED: per-layer self times and counts, e.g.
# `make perfbench-trace W=exact_batch`.
perfbench-trace:
	@test -n "$(W)" || { echo "usage: make perfbench-trace W=exact_batch|approx_large|serve_stream [SEED=n]"; exit 2; }
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 15 --trace 1

clean:
	dune clean
