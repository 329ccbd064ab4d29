# Convenience targets; CI should run `make check`.

.PHONY: all build test test-flow test-warmstart test-metamorphic test-serve \
	test-incremental test-topk test-hierarchy \
	fuzz-smoke fuzz-incremental fuzz-topk fuzz-hierarchy coverage fmt \
	check bench-phases bench-retarget bench-search bench-serve \
	bench-incremental bench-topk bench-hierarchy perfbench \
	perfbench-trace perfbench-counts check-counts perfbench-history clean

all: build

build:
	dune build

test:
	dune runtest

# The flow-layer suites on their own: solver invariants (conservation,
# max-flow = min-cut, residuals, reset_flow), the network's own
# capacity laws (a warm retarget and recapacitate against a fresh
# build) and the retarget differential/accounting contracts.
test-flow:
	dune exec test/test_main.exe -- test flow
	dune exec test/test_main.exe -- test flow-invariants
	dune exec test/test_main.exe -- test flow-retarget

# The warm-start suite on its own: the one repair (set_cap_warm: unit
# cases and its property against a fresh Edmonds-Karp solve), warm vs
# reset differentials for both solvers (Flow_network.retarget, the path
# Inc_dsd and the reference searches use), and the accounting
# contracts of the exact solvers' cold probes (no warm starts, nothing
# drained).
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
# Dynamic no-op and allocation checks, the delta generator/shrinker
# model tests and the arc-surgery flow repairs.
test-incremental:
	dune exec test/test_main.exe -- test incremental

# The top-k suite on its own: the brute-force oracle differential
# (h in {2,3}, k in {1,2,3}, the core-pruned search and the
# whole-remaining-graph Dsd_check.Oracle.reference_topk bit-identical),
# the canonical-region fixtures and the disjointness/monotonicity laws.
test-topk:
	dune exec test/test_main.exe -- test topk

# The hierarchy suites on their own: the union-of-argmax oracle
# differential, the larger-graph battery against the per-level
# reference search, the exact 2L - 1 probe count and the sorted-prefix
# properties, plus the exact chain properties of the LD suite.
test-hierarchy:
	dune exec test/test_main.exe -- test hierarchy
	dune exec test/test_main.exe -- test ld-decomposition

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
# breakpoint search against the per-level reference search of
# Dsd_check.Oracle (bit-identical chain, <= 2 probes per level).
fuzz-hierarchy:
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-nesting
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-level1-equals-cds
	dune exec bin/dsd.exe -- fuzz --cases 150 --seed $(FUZZ_SEED) --time-budget 10 \
		--relation hierarchy-equals-reference

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
# build/test/bench steps.  The smoke bench run writes
# BENCH_<name>.smoke.json (gitignored), never the checked-in full-mode
# BENCH_<name>.json, and the compare gates read those files: the
# search run feeds the exact-search gate (zero mismatches against the
# float reference searches, zero drained excess, no more probes than
# the reference), the serve run the cached-latency gate (a repeated
# identical request must be >= 5x faster than the cold one).
# check-counts last diffs the seed-1 work counts against
# BENCH_counts.txt.
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
	dune exec bench/main.exe -- --only retarget,search,serve,incremental,topk,hierarchy --smoke
	dune exec bench/compare.exe -- BENCH_search.smoke.json
	dune exec bench/compare.exe -- BENCH_serve.smoke.json
	dune exec bench/compare.exe -- BENCH_incremental.smoke.json
	dune exec bench/compare.exe -- BENCH_topk.smoke.json
	dune exec bench/compare.exe -- BENCH_hierarchy.smoke.json
	$(MAKE) check-counts

# Per-phase observability breakdown (Dsd_obs spans/counters).
bench-phases:
	dune exec bench/main.exe -- --only phases

# Flow-network builds vs O(V) re-alphas (writes BENCH_retarget.json).
bench-retarget:
	dune exec bench/main.exe -- --only retarget

# The exact search of Exact, Query, CoreExact and CorePExact against
# the float reference searches of Dsd_check.Oracle (writes
# BENCH_search.json), then the gate: zero mismatches and zero drained
# excess on every row, and no more probes than the reference on the
# Exact and Query rows.
bench-search:
	dune exec bench/main.exe -- --only search
	dune exec bench/compare.exe -- BENCH_search.json

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

# Core-pruned top-k extraction vs the whole-remaining-graph reference
# of Dsd_check.Oracle (writes BENCH_topk.json), then the
# bit-identical-regions and never-slower gate.
bench-topk:
	dune exec bench/main.exe -- --only topk
	dune exec bench/compare.exe -- BENCH_topk.json

# Breakpoint search vs the per-level reference search of the
# density-friendly hierarchy (writes BENCH_hierarchy.json), then the
# zero-mismatch gate (bit-identical chain, B_1 = CDS, <= 2 probes per
# level) and the never-slower gate.
bench-hierarchy:
	dune exec bench/main.exe -- --only hierarchy
	dune exec bench/compare.exe -- BENCH_hierarchy.json

# The repository benchmark (perfbench/, declared in BENCHMARK.json):
# every workload untraced at SEED, end-to-end metrics only.  SECONDS
# sets the script length of every perfbench target (through a nominal
# rate, never the clock).  Runs that overlap another CPU-heavy job are
# not comparable.
SEED ?= 1
SECONDS ?= 15
perfbench:
	for w in exact_batch approx_large serve_stream; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done

# One workload traced at SEED: per-layer self times and counts, e.g.
# `make perfbench-trace W=exact_batch`.
perfbench-trace:
	@test -n "$(W)" || { echo "usage: make perfbench-trace W=exact_batch|approx_large|serve_stream [SEED=n] [SECONDS=n]"; exit 2; }
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace 1

# The counted work of traced runs at SEED: only the metrics whose unit
# is "count" or "bytes", one `workload name value` per line for W
# (default: all three workloads), so the outputs of two commits can be
# diffed, e.g. `make perfbench-counts W=exact_batch`.  The bytes metric
# (codec.bytes_per_req, serve_stream's mean frame size) pins the wire
# format.  gc.major_collections is left out: it follows allocation,
# not work.
perfbench-counts:
	@for w in $(or $(W),exact_batch approx_large serve_stream); do \
		out=$$(bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 1) || exit 1; \
		printf '%s\n' "$$out" | tail -n 1 \
			| grep -o '"[^"]*": {"value": [^,]*, "unit": "\(count\|bytes\)"}' \
			| sed 's/^"\([^"]*\)": {"value": \([^,]*\),.*/\1 \2/' \
			| grep -v '^gc\.' | sed "s/^/$$w /"; \
	done

# The checked-in counted work: all three workloads at seed 1 with 1 s
# scripts (one exact_batch pass), diffed exactly against
# BENCH_counts.txt.  A change that moves work regenerates the file with
# `make -s perfbench-counts SEED=1 SECONDS=1 > BENCH_counts.txt` and
# gives each old -> new value in CHANGES.md.
check-counts:
	$(MAKE) -s --no-print-directory perfbench-counts SEED=1 SECONDS=1 \
		| diff BENCH_counts.txt -

# The untraced end-to-end metrics of all three workloads at SEED and
# SECONDS, appended to BENCH_history.tsv as one tab-separated line per
# workload: commit, workload, seed, seconds, setup_s, ops_per_s,
# op_ms.p50, op_ms.p90, rss_peak_mb, the fail ratio and the box's
# loop_ms before and after.  The file is the trajectory across
# changes; it is reported, never gated.
HISTORY_METRICS = setup_s ops_per_s op_ms.p50 op_ms.p90 rss_peak_mb
perfbench-history:
	@test -f BENCH_history.tsv || printf '%b\n' \
		"commit\tworkload\tseed\tseconds\t$$(echo $(HISTORY_METRICS) | sed 's/ /\\t/g')\tfail_ratio\tloop_ms_before\tloop_ms_after" \
		> BENCH_history.tsv
	@commit=$$(git rev-parse --short HEAD); \
	for w in exact_batch approx_large serve_stream; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0) || exit 1; \
		json=$$(printf '%s\n' "$$out" | tail -n 1); \
		line="$$commit\t$$w\t$(SEED)\t$(SECONDS)"; \
		for m in $(HISTORY_METRICS); do \
			v=$$(printf '%s\n' "$$json" | grep -o "\"$$m\": {\"value\": [^,]*" | sed 's/.*: //'); \
			line="$$line\t$$v"; \
		done; \
		fail=$$(printf '%s\n' "$$out" | sed -n 's/^fail_ratio .* = //p'); \
		loop=$$(printf '%s\n' "$$out" | sed -n 's/^box loop_ms before=\([^ ]*\) after=\(.*\)$$/\1\\t\2/p'); \
		printf '%b\n' "$$line\t$$fail\t$$loop" >> BENCH_history.tsv; \
	done

clean:
	dune clean
