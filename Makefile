GO ?= go
BIN ?= bin

.PHONY: all build bin test tier1 tier1-race tier1-cluster fast vet race bench bench-pair bench-filter fuzz-smoke loc clean

all: build

build:
	$(GO) build ./...

# Install every binary (anngen, annbuild, annquery, annserve,
# annmaster, annworker, annwal, annbench) into $(BIN)/.
bin:
	$(GO) build -o $(BIN)/ ./cmd/...

# Quick loop: vet plus the short test suite. Fault-injection and other
# timing-dependent integration tests honor -short and are skipped here,
# as is the TCP deployment smoke test (cmd/annmaster), which builds the
# binaries and runs them as processes.
fast: vet
	$(GO) test -short ./...

# The second pass type-checks the !amd64 build (the generic SQ8 byte
# kernel) with the standard library's own cross-compilation: nothing to
# download.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

# The experiment-driver tests carry real compute; under the race
# detector on a small machine they outlive go test's default 10m
# per-package timeout, so give them room.
race:
	$(GO) test -race -timeout 1800s ./...

# tier1 is the gate a change must pass before merging: vet clean and the
# full suite (including the fault-injection integration tests) green
# under the race detector.
tier1: build vet race

# Focused race pass over the concurrency-heavy packages: the durable
# store (WAL appends vs group-commit ticker vs compaction swaps), the
# gateway (batcher/cache/mutations), the engine (searches vs swaps),
# the graph and its local-index adapters (one traversal loop serving
# concurrent Add, search and background re-freeze), the multi-tenant
# collection layer (filtered search vs mutation, drain vs admission),
# and the hybrid-retrieval packages (lock-free BM25 reads vs writes,
# rank fusion). Much faster than the full race suite; CI runs both.
tier1-race:
	$(GO) test -race -count=1 -timeout 900s ./internal/store/... ./internal/serve/... ./internal/core/... ./internal/hnsw/... ./internal/index/... ./internal/collection/... ./internal/lexical/... ./internal/fusion/...

# End-to-end multi-node serving gate: gateway + worker shards over real
# loopback TCP (internal/serve/clustertest) plus the shard RPC layer,
# and the master's batch protocol (healthy golden table, worker kills
# with and without a round deadline, prebuilt and node layouts), under
# the race detector. Kill-a-shard-mid-query, replica takeover, golden
# recall equivalence, and cache invalidation all run here.
tier1-cluster:
	$(GO) test -race -count=1 -timeout 300s ./internal/serve/clustertest/... ./internal/cluster/...
	$(GO) test -race -count=1 -timeout 600s ./internal/core -run 'Distributed|Failover|Prebuilt|Worker|Golden'

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Parent-vs-change on one annload workload, the way a performance PR is
# judged, with an A/A control: PAIRS rounds of `bench/run.sh --trace 0`
# on two plain git clones of PARENT and on the working tree, in an order
# that rotates across rounds, then per end-to-end metric the parent's and
# the change's median and quartiles, the pair win count and the relative
# difference beside the bound from BENCHMARK.json, next to the same win
# count and difference for the second parent clone against the first.
# About a minute and a half per pair (three runs). Example:
# make bench-pair PARENT=main WORKLOAD=hybrid
PARENT ?= HEAD~1
WORKLOAD ?= hybrid
PAIRS ?= 10
bench-pair:
	bash scripts/benchpair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# The measurement the filter planner's cut-over is derived from
# (DESIGN §10): every rung of the selectivity ladder answered by the
# candidate scan and by the beam, under nprobe 2, nprobe = all and
# adaptive routing, on the dynamic graph and the frozen SQ8 layout —
# time, distance computations and recall per query, and which of the two
# the planner picks. One core, two passes over 256 queries per cell.
bench-filter:
	$(GO) test -run '^$$' -bench BenchmarkFilteredLadder -benchtime 512x -cpu 1 ./internal/core

# Short native-fuzzing passes: the WAL record scanner (no input may
# panic it or deliver a record whose CRC does not verify), the one
# upsert record — every kind, with fuzzed tags, text and vector
# (FuzzTextRecord, named for the kind it started with: validation
# accepts a record if and only if it round-trips through the codec
# with exact-length framing and a byte-stable re-encode, and what it
# refuses never reaches the log), the MANIFEST reader (envelope, legacy
# manifest, dead rows and parent tombstones: no panic, only typed
# refusals, a byte-stable re-encode), the SQ8 codec (non-finite rejection, round-trip bounds),
# the SQ8 byte kernel (the dispatched kernel, AVX2 where the CPU has it,
# equals the generic one and the naive sum on any pair of codes),
# the filter expression parser (no panic, canonical-form fixed point,
# reparse equivalence), the lexical tokenizer (no panic,
# deterministic, only lowercased alphanumeric terms), the gateway's
# one request-body decoder (per operation: accepts exactly what
# encoding/json accepts into the same request struct, with an equal
# struct; a rejected body is a typed 400/413 counted once), and its
# search-response encoder (exactly json.Encoder's bytes, or the same
# refusal). CI runs this on every push; run without -fuzztime locally
# to dig deeper.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadRecord -fuzztime=10s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzTextRecord -fuzztime=10s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzManifest -fuzztime=10s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzSQ8Codec -fuzztime=10s -run '^$$' ./internal/vec
	$(GO) test -fuzz=FuzzSquaredL2Bytes -fuzztime=10s -run '^$$' ./internal/vec
	$(GO) test -fuzz=FuzzFilterParse -fuzztime=10s -run '^$$' ./internal/filter
	$(GO) test -fuzz=FuzzTokenize -fuzztime=10s -run '^$$' ./internal/lexical
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=10s -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzResponseEncode -fuzztime=10s -run '^$$' ./internal/serve

# Code lines per package (non-blank, non-comment, non-test Go): the
# number a simplicity PR reports before and after. `make loc` lists
# every package; scripts/loc.sh <dir>... counts the ones named.
loc:
	@bash scripts/loc.sh

clean:
	$(GO) clean ./...
