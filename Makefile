# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

# Per-target budget for `make fuzz`; raise locally for deeper hunts, e.g.
#   make fuzz FUZZTIME=5m
FUZZTIME ?= 30s

.PHONY: all build test test-invariant lint vet fbvet sarif doc-lint perfgate perfgate-sarif race bench bench-guard bench-json bench-require bench-compare bench-json-replicate bench-require-replicate perfbench-test trace-check fuzz soak clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-invariant rebuilds with the fbinvariant tag, arming the
# internal/invariant checks (capacity, atomic admission, Landlord credits,
# ranking monotonicity) inside every test and fuzz-seed replay.
test-invariant:
	$(GO) test -tags fbinvariant ./...

# lint = the stock vet suite plus fbvet, the repo-specific analyzers
# (mapiter, floateq, lockcheck, sizeunits, ndtaint, errflow, hotalloc,
# retrybound, pkgdoc, and the interprocedural concurrency suite: lockorder,
# guardedby, goroleak, allowcheck). Both must be clean; findings are
# suppressed only by a justified //fbvet:allow directive, and allowcheck
# flags directives that no longer suppress anything.
lint: vet fbvet

vet:
	$(GO) vet ./...

fbvet:
	$(GO) run ./cmd/fbvet ./...

# sarif emits the fbvet findings as a SARIF 2.1.0 log (fbvet.sarif) and
# structurally validates it — the artifact CI uploads for code scanning.
sarif:
	$(GO) run ./cmd/fbvet -format=sarif ./... > fbvet.sarif
	$(GO) run ./cmd/fbvet -validate fbvet.sarif

# doc-lint runs only the documentation contract: every package must carry a
# package comment (opening "Package <name>" for library packages) stating
# the paper section it implements and its pipeline role.
doc-lint:
	$(GO) run ./cmd/fbvet -run pkgdoc ./...

# perfgate runs the fbvet performance-contract suite (internal/analyzers/perf,
# DESIGN.md §11): a real `go build -gcflags='-m -m -d=ssa/check_bce/debug=1'`
# sweep whose escape-analysis, inlining, and bounds-check diagnostics are
# checked against the //fbvet:noescape, //fbvet:inline, and //fbvet:nobce
# annotations the perf manifest pins on the hot paths. The build cache replays
# diagnostics for unchanged packages, so repeat runs are cheap.
perfgate:
	$(GO) run ./cmd/fbvet -perf ./...

# perfgate-sarif emits the perf-contract findings as SARIF (fbvet-perf.sarif)
# and validates the log — the artifact CI uploads next to the base-suite one.
perfgate-sarif:
	$(GO) run ./cmd/fbvet -perf -format=sarif ./... > fbvet-perf.sarif
	$(GO) run ./cmd/fbvet -validate fbvet-perf.sarif

# race runs the full suite under the race detector, including the dedicated
# concurrency tests in internal/srm and internal/store.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-guard runs the no-op-tracer overhead microbenchmarks: the /baseline
# (no tracer) and /nop (NopTracer installed) variants of the OptCacheSelect
# and Landlord hot loops must report identical allocs/op — tracing must cost
# nothing when off. -benchtime=100x keeps it fast enough to gate CI; compare
# ns/op by eye or with benchstat on a quiet machine.
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkOptCacheSelect' -benchmem -benchtime=100x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkLandlord$$' -benchmem -benchtime=100x ./internal/policy/landlord/
	$(GO) test -run '^$$' -bench 'BenchmarkSpan(Disabled|Enabled|Promoted)' -benchmem -benchtime=100x ./internal/obs/span/

# CORE_BENCH runs the core/landlord/simulate benchmarks and pipes them into
# benchjson, requiring every expected benchmark; bench-json, bench-require
# and bench-compare append only their output flags. BenchmarkAdmit covers
# both history truncations, so the 0-allocs steady state is gated in the
# cache-resident configuration srmd serves with too. -cpu 1 keeps benchmark
# names free of the -GOMAXPROCS suffix, so live runs match the baseline's
# names on any host.
CORE_BENCH = $(GO) test -run '^$$' -bench 'OptCacheSelect|BenchmarkAdmit$$|BenchmarkLandlord|RunEvents|Run(OptFileBundle|Landlord)1000' \
		-benchmem -benchtime=100x -cpu 1 ./internal/core/ ./internal/policy/landlord/ ./internal/simulate/ \
	| $(GO) run ./cmd/benchjson -require OptCacheSelect -require BenchmarkAdmit/ -require Landlord \
		-require RunEvents -require RunOptFileBundle1000

# bench-json runs the core/landlord/simulate benchmarks and converts the
# text output into schema-versioned JSON (BENCH_core.json) via benchjson —
# one point of the benchmark trajectory. The -require flags make a run that
# silently lost an expected benchmark fail instead of writing a thin file.
bench-json:
	$(CORE_BENCH) -out BENCH_core.json
	@echo wrote BENCH_core.json

# bench-require re-runs the bench-json benchmarks and compares against the
# checked-in BENCH_core.json: any lost benchmark or allocs/op increase
# beyond 1% fails (the hot loops are near-deterministic; the 1% absorbs
# ±1-alloc amortized-map-growth jitter at -benchtime=100x); ns/op may
# drift up to NSRATIO× before failing (shared runners are noisy — the
# alloc gate is the load-bearing one). Regenerate the baseline with
# `make bench-json` when a perf change is intentional.
NSRATIO ?= 10
bench-require:
	$(CORE_BENCH) -baseline BENCH_core.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 -out /dev/null

# bench-compare re-runs the bench-json benchmarks against the checked-in
# baseline and writes the before/after table to bench-compare.md — the
# artifact CI uploads so perf deltas are reviewable in the PR. The table is
# written even when the comparison regresses (the exit code still fails the
# step); NSRATIO gates timing exactly as in bench-require.
bench-compare:
	$(CORE_BENCH) -baseline BENCH_core.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 \
		-markdown bench-compare.md -out /dev/null
	@echo wrote bench-compare.md

# bench-json-replicate snapshots the replication planner's benchmarks
# (static Plan, per-arrival predictor fold, full Replan epoch) into
# BENCH_replicate.json — the planner runs inside the event loop every epoch,
# so its cost curve is gated like the core select loops.
bench-json-replicate:
	$(GO) test -run '^$$' -bench 'BenchmarkPlan|BenchmarkPredictorObserve|BenchmarkReplan' \
		-benchmem -benchtime=100x -cpu 1 ./internal/replicate/ \
		| $(GO) run ./cmd/benchjson -require Plan -require PredictorObserve -require Replan -out BENCH_replicate.json
	@echo wrote BENCH_replicate.json

# bench-require-replicate compares a fresh run against the checked-in
# BENCH_replicate.json under the same thresholds as bench-require.
bench-require-replicate:
	$(GO) test -run '^$$' -bench 'BenchmarkPlan|BenchmarkPredictorObserve|BenchmarkReplan' \
		-benchmem -benchtime=100x -cpu 1 ./internal/replicate/ \
		| $(GO) run ./cmd/benchjson -require Plan -require PredictorObserve -require Replan \
			-baseline BENCH_replicate.json -max-ns-ratio $(NSRATIO) -max-alloc-ratio 1.01 -out /dev/null

# perfbench-test vets and tests the end-to-end serving benchmark
# (perfbench/, a module of its own, so `go test ./...` at the root skips
# it): every workload reports every metric, BENCHMARK.json matches the
# metric tables, and the attribution self-test shows a slowed layer fails
# the bounds and is credited to that layer. `bash perfbench/run.sh
# --workload hot` produces the numbers themselves.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# trace-check replays the golden event trace through the offline validator:
# reconstructed residency must satisfy the cache invariants at the golden
# workload's capacity (7 bytes).
trace-check:
	$(GO) run ./cmd/fbtrace validate -capacity 7 internal/simulate/testdata/golden_trace.jsonl
	$(GO) run ./cmd/fbtrace validate internal/simulate/testdata/golden_replica_trace.jsonl

# fuzz gives each harness FUZZTIME of coverage-guided search on top of the
# checked-in corpora (testdata/fuzz/...). The Landlord target runs with
# invariants armed so every generated input also probes the in-line checks.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSelectFastMatchesReference -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSelectHalfBound -fuzztime $(FUZZTIME) ./internal/solver/
	$(GO) test -run '^$$' -fuzz FuzzLandlordInvariants -fuzztime $(FUZZTIME) -tags fbinvariant ./internal/policy/landlord/

# soak replays the fault-injection scenarios with invariants armed: the
# multi-policy fault soak, the churn+correlated generated-scenario soak with
# the epoch re-planner running, and the determinism and bit-identity gates
# for the resilience and replication layers. It first checks with
# `go test -list` that every test named in SOAK_RUN exists, so a renamed or
# deleted soak test fails the target instead of silently dropping out of
# the -run filter.
SOAK_RUN = TestFaultSoak|TestFaultSoakChurnCorrelated|TestFaultsDeterministic|TestFaultsZeroScenarioBitIdentical|TestReplicationDeterministic|TestReplicationZeroBudgetBitIdentical
soak:
	@listed=$$($(GO) test -tags fbinvariant -list . ./internal/simulate/) || exit 1; \
	for t in $(subst |, ,$(SOAK_RUN)); do \
		printf '%s\n' "$$listed" | grep -qx "$$t" || { echo "soak: no test $$t in ./internal/simulate" >&2; exit 1; }; \
	done
	$(GO) test -tags fbinvariant ./internal/simulate/ -run '$(SOAK_RUN)' -v

clean:
	$(GO) clean ./...
