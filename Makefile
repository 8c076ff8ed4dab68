# Development targets for the audiofp reproduction.

GO ?= go

.PHONY: all build vet test test-short stress check bench bench-json bench-stream bench-render bench-shard bench-verify bench-gate fuzz study trace examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . && test -z "$$(gofmt -l .)"

# Full suite, including the 2093-user fixture (~1-2 min).
test:
	$(GO) test ./...

# Skips the rendering sweeps.
test-short:
	$(GO) test -short ./...

# The concurrency contracts at high -count under the race detector:
# read-after-Sync, refresh-in-flight, concurrent engine and router reads,
# verify read-your-writes, the concurrent restart folds under reads, one ID
# per value from an interner the shard engines share, watch
# hook delivery, and one render per (stack, vector) under parallel study
# and evolved-population workers (each stack has one owning worker, so no
# key renders twice); then fpdiag's heap diff repeated in one process,
# which holds only if each bundle's heap profile shows the heap at capture
# time (~45 s wall on 2 vCPU).
stress:
	$(GO) test -race -count=200 -run 'TestStreamingAutoAMIRefresh|TestSyncObservesBatchHooks' ./internal/streaming/
	$(GO) test -race -count=50 -run 'TestEngineConcurrentReads' ./internal/streaming/
	$(GO) test -race -count=50 -run 'TestRouterAutoRefreshOneInFlight|TestRouterConcurrentReads|TestStoresAllConcurrentAppends|TestVerifiersEnrollReadYourWrites|TestRestartFoldsUnderReads' ./internal/shard/
	$(GO) test -race -count=50 -run 'TestEnrollReadYourWrites' ./internal/verify/
	$(GO) test -race -count=50 -run 'TestInternerConcurrent' ./internal/collate/
	$(GO) test -race -count=50 -run 'TestHookDeliveredBeforeSync' ./internal/watch/
	$(GO) test -race -count=5 -run 'TestParallelRenderSingleflight|TestBuildEvolvedRenderBill' ./internal/study/
	$(GO) test -count=5 -run TestFpdiagListShowDiff ./cmd/fpdiag/

# Everything CI should gate on: build, vet/gofmt, the stress target, the
# race detector over the internal packages (the telemetry registry/span
# tree, series store and the watch monitor first — spans/exporter/series
# ticks/alert evaluation cross goroutines in every binary — then the
# parallel sweeps and shared caches), the full suite, the paper-scale fpstudy output
# against the reference file byte for byte under the block engine and
# under the reference engine (which renders in full what the block engine
# renders under the unobserved hint, so it is the study-scale oracle for
# the hint), the cmd/fpbench harness (its own module, so ./... above never
# compiles it) and the tracker example, a short fuzz pass over the
# ingestion surfaces (10s per target, seeded from the checked-in
# torn/corrupt corpora; -fuzzminimizetime 1s keeps shrinking each new
# input, 60s by default, from spending the budget), and a report-only
# bench-gate comparison against the committed render trajectory, reading
# each entry's minimum of three runs as the enforced gate does (shared CI
# runners are too noisy to enforce here; nightly enforces).
check: build vet stress
	$(GO) test -race ./internal/obs/ ./internal/obs/series/ ./internal/watch/ ./internal/webaudio/ ./internal/diag/
	$(GO) test -race ./internal/shard/
	$(GO) test -race ./internal/...
	$(GO) test ./...
	$(GO) run ./cmd/fpstudy 2>/dev/null | cmp - cmd/fpbench/testdata/study-20220325.txt
	$(GO) run ./cmd/fpstudy -render-engine reference 2>/dev/null | cmp - cmd/fpbench/testdata/study-20220325.txt
	(cd cmd/fpbench && $(GO) vet ./... && $(GO) test ./...)
	$(GO) run ./examples/tracker | grep -q 'returning visitors recognized'
	$(GO) test -run '^$$' -fuzz FuzzStoreScan -fuzztime 10s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzRecordCodec -fuzztime 10s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzSubmitHandler -fuzztime 10s -fuzzminimizetime 1s ./internal/collectserver/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzShardOf -fuzztime 10s -fuzzminimizetime 1s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzMergedSnapshotJSON -fuzztime 10s -fuzzminimizetime 1s ./internal/shard/
	$(MAKE) bench-gate GATE_FLAGS=-report-only GATE_COUNT=3

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: BENCH_<date>.json with name, ns/op,
# B/op and allocs/op per benchmark.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_$$(date +%F).json
	@echo wrote BENCH_$$(date +%F).json

# Block-vs-reference DSP engine comparison: per-kernel microbenchmarks plus
# the full-vector render under both engines (DESIGN.md §12). The committed
# BenchmarkRenderVectors entries are the median of 5 runs on a 2-vCPU Xeon
# (Go 1.24, GOMAXPROCS 2), render hint included: 5.9 ms for block/...
# against 19.4 ms for reference/..., 3.3×. The kernel entries are older.
# This target overwrites every entry from one run; on a slower host that
# loosens the bench gate, so commit only the entries that got faster.
bench-render:
	$(GO) test -run '^$$' -bench 'Kernel|RenderVectors' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_render.json
	@echo wrote BENCH_render.json

# Regression gate: rerun the render benchmarks (min of GATE_COUNT samples)
# and compare against the committed BENCH_render.json trajectory. Fails on
# >GATE_TOL relative slowdown or any allocation on a zero-alloc baseline.
# GATE_FLAGS=-report-only prints the comparison without failing.
GATE_COUNT ?= 3
GATE_TOL   ?= 0.30
GATE_BENCHTIME ?= 10x
bench-gate:
	$(GO) test -run '^$$' -bench 'Kernel|RenderVectors' -benchmem -benchtime $(GATE_BENCHTIME) -count $(GATE_COUNT) . \
		| $(GO) run ./cmd/benchjson > /tmp/BENCH_gate.json
	$(GO) run ./cmd/benchgate -base BENCH_render.json -new /tmp/BENCH_gate.json \
		-tolerance $(GATE_TOL) $(GATE_FLAGS)

# Streaming-vs-batch cost at the paper's 2093-user scale: incremental apply
# must come out ≥100× cheaper than the batch recompute (DESIGN.md §10.2).
bench-stream:
	$(GO) test -run '^$$' -bench BenchmarkStream -benchmem ./internal/streaming/ | $(GO) run ./cmd/benchjson > BENCH_stream.json
	@echo wrote BENCH_stream.json

# Sharded-vs-single cost at the paper's 2093-user scale: per-record routing
# overhead, the cold cross-shard merge, the cached read, the plane's heap
# per user at rest (BenchmarkShardLiveHeap's heap-B/user, which only the
# raw output shows: benchjson keeps ns/op, B/op and allocs/op), and a
# four-shard restart's storage half and whole (DESIGN.md §14). Five runs per entry
# (-count 5); benchgate reads the fastest of each name, so one noisy run
# moves nothing. The committed BENCH_shard.json is five runs on a 2-vCPU
# Xeon (Go 1.24.0, GOMAXPROCS 2).
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShard|BenchmarkStores' -benchmem -count 5 ./internal/shard/ | $(GO) run ./cmd/benchjson > BENCH_shard.json
	@echo wrote BENCH_shard.json

# Verification decision latency at enrolled-population scale, the serving
# path behind POST /api/v1/verify, serial and parallel, and enrollment
# with and without shared hashes (DESIGN.md §15.2). Five runs per entry
# (-count 5), as for bench-shard. The committed BENCH_verify.json is five
# runs on a 2-vCPU Xeon (Go 1.24.0, GOMAXPROCS 2).
bench-verify:
	$(GO) test -run '^$$' -bench BenchmarkVerify -benchmem -count 5 ./internal/verify/ | $(GO) run ./cmd/benchjson > BENCH_verify.json
	@echo wrote BENCH_verify.json

# Short fuzzing passes over the parsing/ingestion surfaces, each
# minimizing a new input for at most 1s.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStoreScan -fuzztime 20s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzRecordCodec -fuzztime 20s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzSubmitHandler -fuzztime 20s -fuzzminimizetime 1s ./internal/collectserver/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 20s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzShardOf -fuzztime 20s -fuzzminimizetime 1s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzMergedSnapshotJSON -fuzztime 20s -fuzzminimizetime 1s ./internal/shard/

# Regenerate every table and figure at paper scale.
study:
	$(GO) run ./cmd/fpstudy

# Small traced run: prints the pipeline stage-timing tree (stderr), discards
# the tables.
trace:
	$(GO) run ./cmd/fpstudy -users 150 -followup-users 50 -iterations 5 \
		-evolution-users 100 -progress -trace > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tracker
	$(GO) run ./examples/additive
	$(GO) run ./examples/collection
	$(GO) run ./examples/mitigation

# Note: testdata/fuzz seed corpora and golden files are checked in — clean
# must not remove them.
clean:
	rm -f collection-demo.ndjson fingerprints.ndjson
