package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"uniask/internal/flagdoc"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/remote"
	"uniask/internal/vector"
)

// TestRunSmoke is the binary's smoke test: boot with -addr on an ephemeral
// loopback port and a -snapshot to restore, then drive a real client
// through ping, gauge and search RPCs against the restored shard.
func TestRunSmoke(t *testing.T) {
	cfg := index.Config{Schema: indexer.Schema()}
	store := index.NewSegmented(cfg, index.SegmentConfig{})
	for i := 0; i < 10; i++ {
		title := fmt.Sprintf("Istruzioni carta %d", i)
		err := store.Add(index.Document{
			ID:       fmt.Sprintf("kb%05d#0", i),
			ParentID: fmt.Sprintf("kb%05d", i),
			Fields:   map[string]string{"title": title, "content": "Procedura per il blocco della carta di credito."},
			Vectors:  map[string]vector.Vector{},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	store.Publish()
	store.WaitCompaction()

	snap := filepath.Join(t.TempDir(), "shard.bin")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := run(options{addr: "127.0.0.1:0", snapshot: snap, shard: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := remote.NewClient(remote.ClientConfig{Addr: srv.Addr(), Shard: 3})
	g := remote.NewGroup([]*remote.Client{c}, 0)
	defer g.Close()
	if got, want := g.LiveLen(), store.LiveLen(); got != want {
		t.Fatalf("restored shard holds %d live chunks, want %d", got, want)
	}
	hits, err := g.SearchText(context.Background(), "blocco carta", 5, index.TextOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits from the restored shard")
	}
}

// TestRunBadSnapshot: a corrupt snapshot must fail startup with a
// descriptive error, not serve an empty shard.
func TestRunBadSnapshot(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(options{addr: "127.0.0.1:0", snapshot: bad}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestFlagTableMatchesOperationsDoc fails when a flag has no row in
// docs/OPERATIONS.md or a row names a flag that is gone.
func TestFlagTableMatchesOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("uniask-shard", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range flagdoc.Drift(fs, string(doc), "## Remote shard servers") {
		t.Error(d)
	}
}

// TestBadFlagsAreRefused: a flag value the store cannot honour is refused
// before anything is built, and main exits 2 on it. -compaction-fanin 1
// used to be accepted and left compaction off.
func TestBadFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-compaction-fanin", "1"},
		{"-compaction-fanin", "x"},
		{"-no-such-flag"},
	} {
		fs := flag.NewFlagSet("uniask-shard", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
	fs := flag.NewFlagSet("uniask-shard", flag.ContinueOnError)
	if o, err := parseFlags(fs, []string{"-compaction-fanin", "2"}); err != nil || o.segment.CompactionFanIn != 2 {
		t.Fatalf("-compaction-fanin 2: %+v, %v", o, err)
	}
}
