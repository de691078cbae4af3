GO ?= go

# Fuzzing time per target; CI's smoke job overrides with FUZZTIME=10s.
FUZZTIME ?= 30s

.PHONY: all build lint test test-short race race-full cover bench bench-smoke obs-smoke serve-smoke flight-smoke wire-smoke ingest-smoke metrics figures ablations fuzz clean

all: build lint test

build:
	$(GO) build ./...

# go vet. The project's own analyzer (internal/lint: the probability,
# I/O-accounting and determinism rules every figure depends on, DESIGN.md
# §12) runs inside `go test` as TestSelfHost.
lint:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

# Unabridged race sweep (no -short): slow; CI runs it nightly.
race-full:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# Figure benchmarks at reduced scale; UCAT_BENCH_SCALE=1.0 for paper scale,
# UCAT_BENCH_WORKERS=N for the parallel query path.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Tiny-scale single-iteration pass so benchmarks can't rot (used by CI).
# Includes the allocation-regression benchmarks of the decode hot paths
# (uda Decode vs DecodeInto, pdrtree cached vs uncached node load, the
# PDR-tree top-k kinds' allocs per query) and the inverted index's list join
# with its allocs-per-query ceiling.
bench-smoke:
	UCAT_BENCH_SCALE=0.02 $(GO) test -bench=. -benchtime=1x -short .
	$(GO) test -run - -bench 'BenchmarkDecode' -benchmem -benchtime=1000x ./internal/uda/
	$(GO) test -run TestTopKKindsWarmAllocs -bench 'BenchmarkReadNode' -benchmem -benchtime=100x -count=1 ./internal/pdrtree/
	$(GO) test -run TestBruteForceAllocCeiling -bench 'BenchmarkBruteForce' -benchmem -benchtime=100x -count=1 ./internal/invidx/

# Execute the README serving quickstart verbatim: the command block between
# the serve-quickstart markers in README.md is extracted and run
# (ucatgen -save → ucatd → curl → graceful drain), so the documented
# quickstart cannot rot (used by CI).
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end smoke of the binary wire protocol: boots ucatd, sweeps every
# query kind over both protocols asserting identical answers and zero
# protocol errors (ucatload's exit status), checks the per-protocol /metrics
# counters moved, then re-runs the pinned encode- and decode-path allocation
# tests (used by CI).
wire-smoke:
	bash scripts/wire_smoke.sh
	$(GO) test -run 'TestWire(Encode|Decode)PathAllocs' -count=1 -v ./internal/server/

# End-to-end smoke of the live write path: read-only p99 baseline, then the
# same query sweep against a -wal server with concurrent ingest writers and
# the served-vs-direct determinism check running mid-ingest (bounded p99
# regression), then an acked write, SIGKILL, and recovery of the exact state
# (used by CI; DURABILITY.md is the spec this exercises from the outside).
ingest-smoke:
	bash scripts/ingest_smoke.sh

# Zero-overhead contract for tracing (DESIGN.md §14): with no recorder
# attached, the full per-query span pattern must allocate nothing, and with
# the flight recorder ON the common (tree-dropped) path must stay within 2
# allocs/request (DESIGN.md §19). The AllocsPerRun tests fail the build on
# any regression; the benchmark runs print allocs/op for the record.
obs-smoke:
	$(GO) test -run TestDisabledPathZeroAllocs -count=1 -v ./internal/obs/
	$(GO) test -run TestFlightCommonPathAllocs -count=1 -v ./internal/obs/
	$(GO) test -run - -bench 'BenchmarkDisabled|BenchmarkFlight' -benchmem -benchtime=100000x ./internal/obs/

# End-to-end smoke of the request flight recorder: boots ucatd with
# -slowms 0 and a JSON request log, fires every query kind, and asserts the
# /debug/requests + /v1/version + ucattop -check contract from the outside
# (used by CI).
flight-smoke:
	bash scripts/flight_smoke.sh

# Dump the metrics registry from a tiny benchmark run. ucatbench re-parses
# the file with obs.ParseText before exiting, so a non-zero exit means the
# Prometheus text exposition rotted (used by CI).
metrics:
	$(GO) run ./cmd/ucatbench -fig fig4 -scale 0.02 -queries 4 -metricsout metrics.prom
	@echo "wrote metrics.prom"

# Regenerate the paper's figures (full scale, ~5 minutes).
figures:
	$(GO) run ./cmd/ucatbench -scale 1 -queries 20 | tee results_figures.txt

ablations:
	$(GO) run ./cmd/ucatbench -ablations -scale 1 -queries 20 | tee results_ablations.txt

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/uda/
	$(GO) test -fuzz FuzzMassCapBound -fuzztime $(FUZZTIME) ./internal/uda/
	$(GO) test -fuzz FuzzDecodeBoundary -fuzztime $(FUZZTIME) ./internal/pdrtree/
	$(GO) test -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzReplayWAL -fuzztime $(FUZZTIME) ./internal/wal/

clean:
	$(GO) clean ./...
