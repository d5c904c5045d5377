# Build / verification targets.
#
#   make check          tier-1: vet + build + full test suite
#   make race           race-detector pass over the concurrent packages
#   make stress         tier-2: the concurrency stress tests under -race
#   make fuzz           10s per wire-protocol fuzz target
#   make bench          the parallel-throughput server benchmark
#   make bench-json     hot-path benchmarks frozen into BENCH_PR3.json
#   make alloc-guard    zero-allocation regression tests for the
#                       search hot path (match, caram, server)
#   make trace-guard    tracing-layer gate: ring races and trace
#                       recycling under -race, slowlog admission
#                       property, zero-alloc with tracing compiled in
#                       (off, on-unadmitted, and *TID-tagged)
#   make metrics-smoke  end-to-end observability check: live server,
#                       /metrics + /debug/traces scrape, SLOWLOG/EXPLAIN
#                       and HEALTH over the wire, graceful shutdown
#   make chaos          fault-injection capstone under -race: mixed ops
#                       against engines with live soft-error injectors,
#                       exact ECC/injector counter reconciliation (incl.
#                       the seqlock variant with concurrent scrubs)
#   make seqlock-guard  wait-free search gate: torn-read/linearizability
#                       suites under -race, the zero-alloc guards with
#                       the seqlock read path compiled in, and the
#                       byte-exact golden session
#   make typed-guard    typed-engine gate: the LPM/pktclass/trigram
#                       differential oracle suites and lifecycle churn
#                       under -race, the parser-hardening table, the
#                       zero-alloc guard with typed engines registered,
#                       and the byte-exact golden session serving all
#                       four engine types in one process
#   make cluster-guard  cluster-router gate: the whole router suite
#                       under -race (ring determinism + rebalance,
#                       pool FIFO/breaker semantics, scatter/gather,
#                       the byte-exact golden session through a live
#                       2-backend cluster, kill-a-backend failover
#                       under stress) plus the forward-path
#                       zero-alloc guard
#   make crash-guard    durability gate: the WAL suite (torn-tail
#                       recovery at every byte offset, snapshot
#                       truncation, graceful-drain Close) under -race,
#                       then the kill-injection harness against the
#                       real binary (SIGKILL mid-fsync, restart,
#                       acked-present / unacked-absent)
#   make ci             the CI gate: every test once per mode — check
#                       (the whole suite, which holds every guard's
#                       non-race tests) + race + the guards' race
#                       lines that race does not cover (cluster-race,
#                       reader-race, recycle-race) + metrics-smoke
#   make all            everything above, in that order

GO       ?= go
FUZZTIME ?= 10s

.PHONY: all check vet race stress fuzz bench bench-json alloc-guard trace-guard seqlock-guard typed-guard cluster-guard crash-guard chaos metrics-smoke ci cluster-race reader-race recycle-race

all: check race stress fuzz bench trace-guard seqlock-guard typed-guard cluster-guard crash-guard chaos metrics-smoke

# Each test runs once per mode. check's `go test ./...` already holds
# every guard's non-race line (the zero-alloc guards, the golden
# sessions, the crash harness), race holds the race lines over its
# packages (chaos included), and the three targets below are the only
# guard race lines left; the guards share them as prerequisites, so a
# guard run alone is still complete.
ci: check race cluster-race reader-race recycle-race metrics-smoke

check: vet
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/server ./internal/subsystem ./internal/metrics ./internal/trace ./internal/wal

metrics-smoke:
	$(GO) run ./cmd/metrics-smoke

# Fault-injection capstone: 32 goroutines of mixed operations against
# ECC-protected engines whose memory arrays have live fault injectors,
# under the race detector, with exact counter reconciliation at the end.
chaos:
	$(GO) test -race -run Chaos -count=1 ./internal/subsystem

# Tier-2: the mixed-workload stress tests (>=32 goroutines, >=10k ops)
# under the race detector, across every package that defines them.
stress:
	$(GO) test -run Stress -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExec -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzParseVec -fuzztime $(FUZZTIME) ./internal/server

bench:
	$(GO) test -run '^$$' -bench ServerParallelSearch -benchmem .

# Zero-allocation regression guard: testing.AllocsPerRun == 0 on the
# core search paths (row match kernel, slice lookup, server SEARCH), on
# the router forward path with no collector, an idle one, and the
# shipped defaults (slowlog 10 ms), and on *TID-tagged server requests
# under the shipped defaults.
alloc-guard:
	$(GO) test -run ZeroAlloc -count=1 ./internal/match ./internal/caram ./internal/server
	$(GO) test -run 'ForwardPathAllocs|ZeroAlloc' -count=1 ./internal/cluster

# Durability gate: the whole WAL suite under the race detector (the
# exhaustive torn-tail property, snapshot truncation + replay gating,
# CREATE/DROP replay, relaxed-policy seal flushing), the server-side
# graceful-drain / WAL STATUS suites, the fleet WAL STATUS merge, and
# the kill-injection harness — the real binary SIGKILLed mid-group-
# commit (the -wal-slow-sync hook widens the fsync window), restarted,
# and audited: every acked write present, every unacked write absent.
# CRASH_GUARD_ITERS (default 3) extends the kill loop for soak runs.
crash-guard:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -run 'Close|WALStatus|WALExec' -count=1 ./internal/server
	$(GO) test -race -run 'RouterWALStatus' -count=1 ./internal/cluster
	$(GO) test -run 'Crash|GracefulShutdown' -count=1 ./cmd/caram-server

# Tracing-layer gate: the retention rings under the race detector,
# including the recycling property ten times over (copies readers hold
# stay byte-identical while evicted traces are reused), the slowlog
# admission property (admitted exactly when latency exceeds the
# threshold), the per-command pipelined-burst attribution, the wire
# *TID annotation / TRACE GET suites, the cluster tracing suites (the
# stitched end-to-end trace through a live router, fleet SLOWLOG /
# METRICS / TRACE merges, traced-vs-untraced transparency, recycled
# router root traces), and the steady-state zero-alloc guarantee with
# tracing compiled in.
trace-guard: recycle-race
	$(GO) test -race -count=1 ./internal/trace
	$(GO) test -race -run 'Pipelined|Slowlog|Explain|SlowRequest|TracingOn|WireAnnotation|TraceGet' -count=1 ./internal/server
	$(GO) test -race -run 'ClusterTracing|RouterSlowlog|RouterMetricsAggregation|RouterTraceGet|RouterTracedTransparency|RouterRootTraces|RouterHealthMergeOrder|RouterUntraced' -count=1 ./internal/cluster
	$(GO) test -run 'TracingOnSteadyStateAllocs|ZeroAlloc' -count=1 ./internal/server ./internal/cluster

recycle-race:
	$(GO) test -race -run RingRecycle -count=10 ./internal/trace

# Wait-free search gate: the torn-read/linearizability suites (caram
# Reader and subsystem dispatch) under the race detector, the wait-free
# code-level assertion and forced-retry telemetry, the zero-allocation
# guards with the seqlock path compiled in, and the byte-exact golden
# session (nothing on the wire may change).
seqlock-guard: reader-race
	$(GO) test -race -run 'SearchWaitFree|SearchTornReadStress|ForcedRetryTelemetry' -count=1 ./internal/subsystem
	$(GO) test -run ZeroAlloc -count=1 ./internal/match ./internal/caram ./internal/server
	$(GO) test -run GoldenSession -count=1 ./internal/server

reader-race:
	$(GO) test -race -run 'TestReader' -count=1 ./internal/caram

# Typed-engine gate: every differential oracle suite (wire answers vs
# the simulation packages' trie / linear classifier / trigram slice),
# the 16-goroutine mixed-ops churn variants, and engine lifecycle churn
# all run under the race detector; then the typed parser-hardening
# table, the zero-alloc guard with typed engines registered, and the
# golden session that serves exact, lpm, pktclass, and trigram engines
# from one server process.
typed-guard:
	$(GO) test -race -run 'Typed' -count=1 ./internal/server ./internal/subsystem
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/server
	$(GO) test -run GoldenSession -count=1 ./internal/server

# Cluster-router gate: everything in internal/cluster under the race
# detector — ring determinism and the rebalance property, pool FIFO
# reply matching and breaker/probe recovery, the transparency
# differential, scatter/gather merges, the byte-exact golden session
# through a live two-backend cluster, and the kill-a-backend failover
# storm — then the forward-path zero-alloc guard without -race (the
# race runtime allocates).
cluster-guard: cluster-race
	$(GO) test -run ForwardPathAllocs -count=1 ./internal/cluster

cluster-race:
	$(GO) test -race -count=1 ./internal/cluster

# Freeze the hot-path benchmarks into a versioned JSON artifact.
bench-json:
	$(GO) test -run '^$$' -bench 'RowMatch|ServerSearchZeroAlloc|ServerSearchInstrumented|MSearchBatched|SliceLookup$$' \
		-benchmem . | $(GO) run ./cmd/bench2json > BENCH_PR3.json
	$(GO) test -run '^$$' -bench SearchUnderWriteContention -benchmem \
		./internal/subsystem | $(GO) run ./cmd/bench2json > BENCH_PR6.json
	$(GO) test -run '^$$' -bench 'RouterPipelinedSearch$$|UnpipelinedProxySearch|DirectServerSearch|RouterForwardPath$$' \
		-benchmem ./internal/cluster | $(GO) run ./cmd/bench2json > BENCH_PR8.json
	$(GO) test -run '^$$' -bench 'RouterForwardPath|RouterPipelinedSearch/depth8' \
		-benchmem ./internal/cluster | $(GO) run ./cmd/bench2json > BENCH_PR9.json
	$(GO) test -run '^$$' -bench WALInsert -benchtime 2000x \
		-benchmem ./internal/wal | $(GO) run ./cmd/bench2json > BENCH_PR10.json
