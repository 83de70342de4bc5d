GO ?= go

# Benchmark knobs for bench-dispatch. Fixed -cpu keeps runs comparable
# across machines and against CI; override per invocation, e.g.
#   make bench-dispatch BENCHTIME=3s BENCHCPU=8
BENCHTIME ?= 1s
BENCHCPU ?= 4

.PHONY: all help build vet test test-race reconfig bench bench-dispatch bench-gate scenarios fuzz ci ci-local

all: build

help:
	@echo "Targets:"
	@echo "  build           go build ./..."
	@echo "  vet             go vet ./..."
	@echo "  test            go test ./..."
	@echo "  test-race       go test -race ./... (deque/routing-cache stress tests)"
	@echo "  reconfig        channel/swap/fan-out contract tests, 20 runs at each of"
	@echo "                  -cpu 1,2,4, then once under -race"
	@echo "  bench           full benchmark sweep (macro experiments included)"
	@echo "  bench-dispatch  hot-path microbenchmarks only: dispatch, fan-out,"
	@echo "                  ping-pong, deque. Pinned -benchtime $(BENCHTIME) -cpu $(BENCHCPU);"
	@echo "                  override with BENCHTIME=... BENCHCPU=..."
	@echo "  bench-gate      million-key + WAL durability + hedge catsbench profiles"
	@echo "                  (reduced scale) gated against the bench/BENCH_baseline_*"
	@echo "                  floors"
	@echo "  scenarios       every catssim scenario gate in SCENARIOS: each name:seed"
	@echo "                  pair runs twice, must pass its gates and print identical"
	@echo "                  reports"
	@echo "  fuzz            wire decoder fuzz targets: the network package's, 30s"
	@echo "                  each, and each protocol package's message set, 10s each"
	@echo "  ci              vet + build + test-race"
	@echo "  ci-local        full local mirror of the gating CI matrix (lint, tests,"
	@echo "                  alloc gates, scenarios, bench-gate)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector run; includes the deque and routing-cache stress tests in
# internal/core (concurrent push/pop/steal, subscribe/unsubscribe under fire).
test-race:
	$(GO) test -race ./...

# The paper's §2.6 channel contract: Hold/Resume/Unplug/Plug/Swap never
# drop or reorder an event, under concurrent and batched fan-out traffic.
# Interleavings depend on the core count and the host's load, so the
# oracles run 20 times at each of 1, 2 and 4 CPUs, then under -race.
RECONFIG_TESTS = Channel|Hold|Unplug|Disconnect|Swap|Fanout|FanOut|TriggerBatch
reconfig:
	$(GO) test -count=20 -cpu 1,2,4 -run '$(RECONFIG_TESTS)' ./internal/core/
	$(GO) test -race -count=1 -run '$(RECONFIG_TESTS)' ./internal/core/

# Full benchmark sweep (experiment macro-benchmarks take seconds per run).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Just the hot-path microbenchmarks: dispatch allocs, batched fan-out, and
# deque throughput. -benchtime and -cpu are pinned (see BENCHTIME/BENCHCPU
# above) so results are comparable between local runs and the CI artifact.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkDispatchAllocs|BenchmarkPingPongRoundTrip|BenchmarkChannelFanout|BenchmarkFanout' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 .
	$(GO) test -run '^$$' -bench 'BenchmarkWSDeque|BenchmarkStealPingPong' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 ./internal/core/

# Local mirror of the CI bench-gate job: the reduced-scale million-key
# profile and the WAL durability A/B must complete cleanly within 10% of
# their checked-in throughput baselines, and the hedged-quorum A/B must
# keep beating the gray straggler's tail (see bench/README.md).
bench-gate:
	$(GO) build -o /tmp/catsbench ./cmd/catsbench
	/tmp/catsbench -exp million -quick -json-dir /tmp/bench -gate bench/BENCH_baseline_million.json
	/tmp/catsbench -exp wal -quick -json-dir /tmp/bench -wal-gate bench/BENCH_baseline_wal.json
	/tmp/catsbench -exp hedge -json-dir /tmp/bench -hedge-gate bench/BENCH_baseline_hedge.json

# The scenario gates (CI job "scenarios"). Every name:seed pair runs twice:
# a run exits non-zero if it fails a gate its registry entry declares
# (internal/experiments/scenario.go), and the two reports must be
# byte-identical. SIM_SIZE sizes the sim scenario.
SCENARIOS = sim:7 sim:41 sim:1003 sim:22222 sim:987654321 \
	chaos:3 chaos:77 chaos:4242 chaos-long:11 chaos-durable:5 \
	gray:3 gray:77 gray:4242 recovery:3 recovery:21 recovery:99
SIM_SIZE = -boot 30 -churn 10 -lookups 200 -ops 100 -tail 10s
SCENARIO_OUT ?= /tmp/catssim-scenarios
scenarios:
	mkdir -p $(SCENARIO_OUT)
	$(GO) build -o $(SCENARIO_OUT)/catssim ./cmd/catssim
	for pair in $(SCENARIOS); do \
		name=$${pair%%:*}; seed=$${pair#*:}; size=; \
		[ $$name != sim ] || size="$(SIM_SIZE)"; \
		for run in a b; do \
			$(SCENARIO_OUT)/catssim -scenario $$name -seed $$seed $$size > $(SCENARIO_OUT)/$$name-$$seed-$$run.txt || exit 1; \
		done; \
		diff -u $(SCENARIO_OUT)/$$name-$$seed-a.txt $(SCENARIO_OUT)/$$name-$$seed-b.txt || exit 1; \
		cat $(SCENARIO_OUT)/$$name-$$seed-a.txt; \
	done

# Wire decoder fuzz targets (also run as smoke in CI): the payload decoder
# must never panic or mis-frame on arbitrary bytes, the WireReader must
# latch at the first out-of-bounds read, and the framing layer must keep
# control prefixes and legal lengths disjoint. Each protocol package fuzzes
# the decoders of its own message set, seeded with one payload per tag.
WIRE_FUZZ = abd:FuzzABDWire handoff:FuzzHandoffWire fd:FuzzFDWire ring:FuzzRingWire \
	cyclon:FuzzCyclonWire bootstrap:FuzzBootstrapWire monitor:FuzzMonitorWire
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePayload' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzWireReader' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzFramePrefix' -fuzztime 30s ./internal/network/
	for t in $(WIRE_FUZZ); do \
		$(GO) test -run '^$$' -fuzz "$${t#*:}" -fuzztime 10s ./internal/$${t%%:*}/ || exit 1; \
	done

ci: vet build test-race

# Everything the gating CI matrix runs, locally and in one command. The
# alloc-gate suites and the scenario gates mirror .github/workflows/
# ci.yml; the -race pass is unsharded here (sharding only buys wall-clock
# on parallel runners).
ci-local: vet build
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) test -count=1 ./...
	$(MAKE) reconfig
	$(GO) test -race -count=1 ./...
	$(GO) test -run 'ZeroAlloc' -count=1 .
	$(GO) test -run 'WALAppendSteadyStateAllocs|WALGroupSyncAllocs|VersionStringAlloc' -count=1 ./internal/kvstore/
	$(GO) test -run 'MetricsEndpoint|MetricsWriter|RegisteredMetricsSources' -count=1 ./internal/web/
	$(GO) test -run 'PhaseMetricsExposition' -count=1 ./internal/abd/
	$(GO) test -run 'ZeroAlloc|WireRoundTrip' -count=1 ./internal/network/ ./internal/abd/ ./internal/handoff/ ./internal/fd/ ./internal/ring/ ./internal/cyclon/ ./internal/bootstrap/ ./internal/monitor/
	$(MAKE) scenarios
	$(MAKE) bench-gate
