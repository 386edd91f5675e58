# Developer entry points. `make check` is the tier-1 verification gate:
# vet + the full test suite with the race detector on, since the query
# pipeline fans retrieval out over a worker pool and the determinism
# tests only mean something when raced.

GO ?= go

.PHONY: all build test race vet check bench bench-paper chaos fuzz-short shardparity doccheck

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the concurrent packages plus everything that sits
# on top of them. Slower than `make test`; required before merging
# changes to pipeline, search, core, or monitor. The experiments package
# rebuilds several paper-scale corpora (now with background segment
# compaction re-indexing merged runs) and needs more than go test's
# default 10m per-package budget under the race detector's ~10x slowdown.
race:
	$(GO) test -race -timeout 20m ./...

# gofmt is part of vet: any file it would reformat fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: these files need formatting:"; echo "$$out"; exit 1; fi

check: vet build race shardparity doccheck fuzz-short

# Cross-check the sharded facade against the monolithic index: byte-identical
# rankings for the Tables 1-3 query sets at every shard count, raced because
# the fan-out is concurrent. Includes the three-way remote harness
# (TestShardParityRemoteThreeWay): remote == in-process == monolithic over
# loopback shard servers at replication 2, through the full
# memtable/tombstone/compaction lifecycle — hence the raised timeout.
shardparity:
	$(GO) test -race -count=1 -timeout 20m -run TestShardParity ./internal/shard/

# Every internal package, nested ones such as internal/experiments/* too,
# must carry a package doc comment ("// Package <name> ..."), so godoc
# renders an operator-readable overview of each subsystem.
# Then cmd/doccheck walks README.md, DESIGN.md, OPERATIONS.md and docs/*.md
# and fails on dead intra-repo links (files moved or renamed without their
# references following), on any cmd/* or internal/* directory that
# DESIGN.md §2 "Repository layout" does not list, and on any
# context.Background()/context.TODO() call in non-test internal/ code that
# cmd/doccheck/detached_contexts.txt does not list with a reason (or a
# listed one that is gone).
doccheck:
	@set -e; for d in $$(find internal -name testdata -prune -o -name '*.go' -printf '%h\n' | sort -u); do \
		pkg=$$(basename $$d); \
		grep -l "^// Package $$pkg " $$d/*.go >/dev/null || { echo "doccheck: package $$d lacks a '// Package $$pkg' doc comment"; exit 1; }; \
	done; echo "doccheck: every internal package is documented"
	$(GO) run ./cmd/doccheck README.md DESIGN.md docs/*.md

# Run the chaos suite 20 times with rotating seeds; each seed draws a
# different fault schedule and query sample, so a pass means the resilience
# guarantees hold across fault orderings, not just the default seed.
CHAOS_RUNS ?= 20
chaos:
	@set -e; for i in $$(seq 1 $(CHAOS_RUNS)); do \
		seed=$$((20250805 + i)); \
		echo "chaos run $$i/$(CHAOS_RUNS) (CHAOS_SEED=$$seed)"; \
		CHAOS_SEED=$$seed $(GO) test -count=1 ./internal/chaos/; \
	done

# Short fuzzing pass over the parsers that consume untrusted / fault-injected
# bytes: the tokenizer+analyzer (arbitrary document text), the citation
# parser (raw LLM output), the TraceQL-lite query parser (the
# /api/traces?q= input), the segmented and sharded snapshot container
# decoders (bytes read back from disk) and the remote-shard wire
# frame/envelope decoders (bytes read off the network) — plus the
# compaction pick, a pure function of the segment size list held to its
# specification on arbitrary lists, the four-way float dot kernel held
# bit-identical to the one-at-a-time dot, HNSW construction held to the
# same saved graph with and without its pair-distance cache, a bulk
# write held to the loop of single adds (ids, vector dimensions and batch
# cuts drawn from the input), HNSW construction held to the same saved
# graph and searches whether or not equal consecutive vectors share an
# arena slot, and the HNSW snapshot reader, whose every accepted graph
# must answer a search without panicking. Seeds include
# the checked-in crasher corpora. A sharded container seed is kilobytes
# long, and the default minimization of each new input it yields (up to
# 60s) would eat the whole short run, so that target caps it.
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME) ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzExtractCitationKeys -fuzztime $(FUZZTIME) ./internal/generation/
	$(GO) test -run '^$$' -fuzz FuzzTraceQL -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzSegmentedManifest -fuzztime $(FUZZTIME) ./internal/index/
	$(GO) test -run '^$$' -fuzz FuzzCompactionPick -fuzztime $(FUZZTIME) ./internal/index/
	$(GO) test -run '^$$' -fuzz FuzzAddBulk -fuzztime $(FUZZTIME) ./internal/index/
	$(GO) test -run '^$$' -fuzz FuzzShardedSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzRemoteWire -fuzztime $(FUZZTIME) ./internal/remote/
	$(GO) test -run '^$$' -fuzz FuzzSSEParser -fuzztime $(FUZZTIME) ./internal/sse/
	$(GO) test -run '^$$' -fuzz FuzzDotKernel -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -run '^$$' -fuzz FuzzBuildCache -fuzztime $(FUZZTIME) ./internal/vector/
	$(GO) test -run '^$$' -fuzz FuzzReadHNSW -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/vector/
	$(GO) test -run '^$$' -fuzz FuzzSharedSlots -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/vector/

# Query hot-path micro-benchmarks (BM25, ANN, filter bitsets, query cache,
# shard-count scaling, tracing overhead, ingest-while-query steady state,
# the compactor's counted write amplification under a trickle of edits,
# admission-control overhead, the noisy-neighbor p99 delta, the
# document-fetch RPCs one search costs on remote shards, HNSW graph
# construction, a bulk load beside one reader, the analyzer and reranker
# over corpus pages, one /api/search cache hit through the handler, and the
# bytes a sealed store keeps resident per chunk) with
# allocation stats, recorded as BENCH_query.json via
# cmd/benchjson. make's /bin/sh has
# no pipefail, so the pipeline's status is benchjson's: it exits 1 and
# writes nothing when go test reports a FAIL or panic, and the report goes
# to a temp file that replaces BENCH_query.json only on success.
bench:
	$(GO) test -bench 'BenchmarkSearchText|BenchmarkSearchVector|BenchmarkFilterSet|BenchmarkQueryCache|BenchmarkTrace|BenchmarkIngest|BenchmarkBulkLoad|BenchmarkCompaction|BenchmarkTenant|BenchmarkSession|BenchmarkSSE|BenchmarkServeSearchHit|BenchmarkFinalize|BenchmarkHNSWBuild|BenchmarkAnalyzeUnique|BenchmarkTokenize|BenchmarkRerank|BenchmarkResidentBytes' \
		-benchmem -run '^$$' ./internal/index/ ./internal/search/ ./internal/shard/ ./internal/trace/ ./internal/tenant/ ./internal/server/ ./internal/vector/ ./internal/textproc/ ./internal/rerank/ \
		| $(GO) run ./cmd/benchjson -baseline BENCH_query_baseline.json \
			-note "SearchVector* time one contentVector ANN leg (k=15): greedy descent plus a layer-0 beam over the float32 arena the graph was built over; the returned distances are the beam's own exact 1 - dot values, so there is no rescoring pass." \
			> BENCH_query.json.tmp || { rm -f BENCH_query.json.tmp; exit 1; }
	mv BENCH_query.json.tmp BENCH_query.json
	@echo "wrote BENCH_query.json"

# Paper-scale end-to-end benchmark (Tables 1-3 reproduction).
bench-paper:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
