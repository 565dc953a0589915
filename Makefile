# Development targets. `make check` is the full gate run before any
# change lands: vet, build, full test suite, the race-enabled
# stress/property suite over the concurrent machinery, then the
# benchmark module's own vet and tests.

GO ?= go

.PHONY: all check vet build test race bench-module determinism bench bench-suite drift-smoke

all: check

check: vet build test race bench-module

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine, queue, metrics, and obs packages contain the concurrency
# stress + property tests; run them with the race detector and without
# result caching. The experiments and sched packages cover the parallel
# experiment grids, the autotune worker pool, and the profiling cache's
# singleflight. onlineprof and runtime cover concurrent event ingestion
# during admit/exit churn and on the Real engine's dispatchers. cmd/btrun
# serves a live multi-session runtime over -listen while it runs.
race:
	$(GO) test -race -count=1 ./internal/pipeline/... ./internal/queue/... ./internal/metrics/... ./internal/runtime/... ./internal/obs/... ./internal/schedcache/... ./internal/fleet/... ./internal/onlineprof/... ./cmd/btrun/...
	$(GO) test -race -count=1 -run 'Parallel|Concurrent|ForEach' ./internal/experiments/... ./internal/sched/...

# bench-module vets and tests the separate perfbench module, the one
# consumer of the engine's TaskObject outside this module.
bench-module:
	cd perfbench && $(GO) vet . && $(GO) test .

# determinism runs every test that claims a run-to-run identical result
# 20 times, so a nondeterministic replay fails here rather than on a
# later, unlucky run. TestCacheChurnStress is here too: its per-round
# cache hits must not depend on session timing; so is TestCachePlansOnce,
# whose hit and solve counts must not either.
determinism:
	$(GO) test -count=20 -run 'Determin|Drift|Identical|CacheChurnStress|CachePlansOnce' ./internal/experiments/... ./internal/runtime/... ./internal/onlineprof/... ./internal/fleet/... ./internal/sched/... ./internal/profiler/...

bench:
	$(GO) test -bench=. -benchmem .

# bench-suite times the experiment subset that fans across the worker
# pool, serial vs -parallel, and fails if the parallel report diverges
# from the serial golden output by a single byte.
BENCH_EXPS ?= table3,fig7,fig4,fig5
bench-suite:
	@mkdir -p .bench
	$(GO) build -o .bench/btbench ./cmd/btbench
	@echo "== serial ($(BENCH_EXPS))"
	@t0=$$(date +%s%N); .bench/btbench -exp $(BENCH_EXPS) > .bench/serial.txt; \
	 t1=$$(date +%s%N); echo "serial:   $$(( (t1 - t0) / 1000000 )) ms"
	@echo "== parallel ($(BENCH_EXPS))"
	@t0=$$(date +%s%N); .bench/btbench -parallel -exp $(BENCH_EXPS) > .bench/parallel.txt; \
	 t1=$$(date +%s%N); echo "parallel: $$(( (t1 - t0) / 1000000 )) ms"
	@cmp .bench/serial.txt .bench/parallel.txt && echo "outputs identical" || \
	 { echo "FAIL: parallel output diverges from serial golden output"; exit 1; }

# drift-smoke runs the online-profiling drift-convergence experiment
# twice. btbench itself gates the feedback contract (oracle run quiet,
# injected error detected, distorted run converges back to the oracle
# schedule); the cmp gates that the whole loop is deterministic.
drift-smoke:
	@mkdir -p .bench
	$(GO) build -o .bench/btbench ./cmd/btbench
	.bench/btbench -exp drift > .bench/drift_a.txt
	.bench/btbench -exp drift > .bench/drift_b.txt
	@cmp .bench/drift_a.txt .bench/drift_b.txt && echo "drift convergence deterministic" || \
	 { echo "FAIL: drift convergence output diverges between runs"; exit 1; }
