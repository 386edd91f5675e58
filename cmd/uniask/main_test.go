package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uniask/internal/flagdoc"
)

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("uniask", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFlagsBindOntoOneConfig: every engine flag lands on the one Config both
// serving modes are built from, and no flags leaves the paper's deployment
// (plus the binary's own choices: summaries on, replication 2).
func TestFlagsBindOntoOneConfig(t *testing.T) {
	o := parse(t)
	if o.addr != ":8080" || o.docs != 6000 || o.seed != 1 {
		t.Fatalf("defaults: addr %q docs %d seed %d", o.addr, o.docs, o.seed)
	}
	cfg := o.engine
	if !cfg.Indexer.EnrichSummary || cfg.ShardCount != 1 || cfg.RemoteReplication != 2 || cfg.RemoteShards != nil {
		t.Fatalf("default engine config = %+v", cfg)
	}

	o = parse(t, "-workers", "3", "-shards", "4", "-shard-endpoints", "a:1, b:2,", "-shard-replication", "1",
		"-memtable-max-docs", "32", "-compaction-fanin", "-1", "-trace-capacity", "-1", "-trace-sample", "0.5",
		"-trace-slow", "2s", "-session-ttl", "1m", "-admission-capacity", "7")
	cfg = o.engine
	if cfg.SearchWorkers != 3 || cfg.ShardCount != 4 || cfg.RemoteReplication != 1 ||
		strings.Join(cfg.RemoteShards, "|") != "a:1|b:2" ||
		cfg.Segment.MemtableMaxDocs != 32 || cfg.Segment.CompactionFanIn != -1 ||
		cfg.Trace.Capacity != -1 || cfg.Trace.SampleRate != 0.5 || cfg.Trace.SlowThreshold != 2*time.Second {
		t.Fatalf("engine config = %+v", cfg)
	}
	if o.session.TTL != time.Minute || o.admission.Capacity != 7 {
		t.Fatalf("session %+v admission %+v", o.session, o.admission)
	}
}

// TestTenantsWithShardEndpointsRefused: -tenants used to drop
// -shard-endpoints silently and serve from in-process stores. Honouring it
// would point every tenant engine at the same remote shards, so startup
// fails instead.
func TestTenantsWithShardEndpointsRefused(t *testing.T) {
	overrides := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(overrides, []byte(`{"tenants": {"banca-alfa": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	o := parse(t, "-tenants", overrides, "-shard-endpoints", "127.0.0.1:1,127.0.0.1:2")
	if len(o.engine.RemoteShards) != 2 {
		t.Fatalf("RemoteShards = %v, want the two endpoints", o.engine.RemoteShards)
	}
	if _, err := newServer(ctx, o); err == nil || !strings.Contains(err.Error(), "RemoteShards") {
		t.Fatalf("newServer with -tenants and -shard-endpoints: err = %v, want a refusal naming RemoteShards", err)
	}
	if _, err := newServer(ctx, parse(t, "-tenants", overrides, "-tenants-reload", "-1s")); err != nil {
		t.Fatalf("newServer with -tenants alone: %v", err)
	}
}

// TestFlagTableMatchesOperationsDoc fails when a flag has no row in
// docs/OPERATIONS.md or a row names a flag that is gone.
func TestFlagTableMatchesOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("uniask", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range flagdoc.Drift(fs, string(doc), "## Running the server") {
		t.Error(d)
	}
}
