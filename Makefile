# Development targets. `make check` is the full gate run before any
# change lands: vet, build, full test suite, then the race-enabled
# stress/property suite over the concurrent machinery.

GO ?= go

.PHONY: all check vet build test race determinism bench bench-suite bench-churn bench-fleet drift-smoke

all: check

check: vet build test race

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
# during admit/exit churn and on the Real engine's dispatchers.
race:
	$(GO) test -race -count=1 ./internal/pipeline/... ./internal/queue/... ./internal/metrics/... ./internal/runtime/... ./internal/obs/... ./internal/schedcache/... ./internal/fleet/... ./internal/onlineprof/...
	$(GO) test -race -count=1 -run 'Parallel|Concurrent|ForEach' ./internal/experiments/... ./internal/sched/...

# determinism runs every test that claims a run-to-run identical result
# 20 times, so a nondeterministic replay fails here rather than on a
# later, unlucky run.
determinism:
	$(GO) test -count=20 -run 'Determin|Drift|Identical' ./internal/experiments/... ./internal/runtime/... ./internal/onlineprof/... ./internal/fleet/...

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

# bench-churn runs the admission-churn benchmark (schedule cache off vs
# on), requires the cache to deliver at least a 5x admission speedup,
# writes the fresh samples to .bench/BENCH_6.json, and — when a baseline
# BENCH_6.json is committed at the repo root — gates against it with a
# 10% regression tolerance. It then reports (without a gate) the sampled
# span hot path and one autotuning-sized simulated run.
CHURN_MIN_SPEEDUP ?= 5
CHURN_GATE := $(wildcard BENCH_6.json)
bench-churn:
	@mkdir -p .bench
	$(GO) build -o .bench/btbench ./cmd/btbench
	.bench/btbench -exp churn -churn-min-speedup $(CHURN_MIN_SPEEDUP) \
	  -bench-json .bench/BENCH_6.json \
	  $(if $(CHURN_GATE),-bench-gate $(CHURN_GATE) -gate-tolerance 10,)
	$(GO) test -run - -bench BenchmarkSpanHotPath -benchmem ./internal/obs/sessiontrace/
	$(GO) test -run - -bench BenchmarkSimEngineRun -benchmem ./internal/pipeline/

# bench-fleet runs the fleet placement-throughput scaling sweep (banded
# headroom index vs exhaustive ranking over 10/100/1000-node fleets) and
# writes the samples to .bench/BENCH_9.json. Pure wall-clock throughput,
# so the rows record the trajectory without a regression gate; the
# banded/exhaustive *outcome* equivalence is pinned by the fleet
# package's tests instead.
bench-fleet:
	@mkdir -p .bench
	$(GO) build -o .bench/btbench ./cmd/btbench
	.bench/btbench -exp fleetscale -bench-json .bench/BENCH_9.json

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
