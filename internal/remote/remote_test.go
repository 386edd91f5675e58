package remote

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/vector"
)

// testConfig is the shared store configuration of the wire tests: the real
// production schema with the exact vector backend, so client-vs-local
// comparisons are deterministic.
func testConfig() index.Config {
	return index.Config{
		Schema:      indexer.Schema(),
		VectorIndex: func(string) vector.Index { return vector.NewExhaustive() },
	}
}

// testDoc builds a small deterministic document.
func testDoc(i int) index.Document {
	title := fmt.Sprintf("Documento operativo %d", i)
	content := fmt.Sprintf("Istruzioni operative %d per la gestione del conto corrente e delle carte.", i)
	vec := make(vector.Vector, 8)
	for d := range vec {
		vec[d] = float32((i*7+d*3)%13) / 13
	}
	return index.Document{
		ID:       fmt.Sprintf("kb%05d#0", i),
		ParentID: fmt.Sprintf("kb%05d", i),
		Fields:   map[string]string{"title": title, "content": content},
		Vectors:  map[string]vector.Vector{"titleVector": vec, "contentVector": vec},
	}
}

// startServer boots a loopback shard server and returns it with its address.
func startServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServer(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestClientMatchesLocal drives the same writes and queries through a
// remote client and a local segmented store and requires byte-identical
// results: the wire layer must be a transparent transport, adding no
// behavior of its own.
func TestClientMatchesLocal(t *testing.T) {
	cfg := testConfig()
	seg := index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2}
	srv := startServer(t, ServerConfig{Index: cfg, Segment: seg})
	c := NewClient(ClientConfig{Addr: srv.Addr(), Shard: 3})
	defer c.Close()
	local := index.NewSegmented(cfg, seg)

	ctx := context.Background()
	var docs []index.Document
	for i := 0; i < 40; i++ {
		docs = append(docs, testDoc(i))
	}
	if err := c.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	if err := local.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(testDoc(40)); err != nil {
		t.Fatal(err)
	}
	if err := local.Add(testDoc(40)); err != nil {
		t.Fatal(err)
	}
	// Quiesce the build-time compactors before deleting, so both sides hold
	// the same tombstones whatever the RPC latency gave the remote one time
	// to merge (a compaction that drops a tombstone moves StatsKey).
	c.WaitCompaction()
	local.WaitCompaction()
	if got, want := c.Delete("kb00007#0"), local.Delete("kb00007#0"); got != want {
		t.Fatalf("Delete: remote %v local %v", got, want)
	}
	if got, want := c.DeleteParent("kb00011"), local.DeleteParent("kb00011"); got != want {
		t.Fatalf("DeleteParent: remote %v local %v", got, want)
	}
	c.Publish()
	local.Publish()
	c.WaitCompaction()
	local.WaitCompaction()

	// Staleness signals and gauges agree.
	if got, want := c.StatsKey(), local.StatsKey(); got != want {
		t.Errorf("StatsKey: remote %d local %d", got, want)
	}
	if got, want := c.Len(), local.Len(); got != want {
		t.Errorf("Len: remote %d local %d", got, want)
	}
	if got, want := c.LiveLen(), local.LiveLen(); got != want {
		t.Errorf("LiveLen: remote %d local %d", got, want)
	}
	if got, want := c.Tombstones(), local.Tombstones(); got != want {
		t.Errorf("Tombstones: remote %d local %d", got, want)
	}

	// Full-text, global-stats and vector paths are byte-identical.
	for _, q := range []string{"istruzioni conto", "carte", "gestione operativa", ""} {
		rh, err := c.SearchText(ctx, q, 10, index.TextOptions{})
		if err != nil {
			t.Fatalf("SearchText %q: %v", q, err)
		}
		lh := local.SearchText(q, 10, index.TextOptions{})
		if got, want := fmt.Sprintf("%#v", rh), fmt.Sprintf("%#v", lh); got != want {
			t.Errorf("SearchText %q: remote %s local %s", q, got, want)
		}

		stats, err := c.CollectStats(ctx, nil, nil)
		if err != nil {
			t.Fatalf("CollectStats: %v", err)
		}
		lstats := local.CollectStats(nil, nil)
		rg, err := c.SearchTextGlobal(ctx, q, 10, index.TextOptions{}, &stats)
		if err != nil {
			t.Fatalf("SearchTextGlobal %q: %v", q, err)
		}
		lg := local.SearchTextGlobal(q, 10, index.TextOptions{}, &lstats)
		if got, want := fmt.Sprintf("%#v", rg), fmt.Sprintf("%#v", lg); got != want {
			t.Errorf("SearchTextGlobal %q: remote %s local %s", q, got, want)
		}
	}
	qv := testDoc(3).Vectors["titleVector"]
	rv, err := c.SearchVectorUnit(ctx, "titleVector", qv, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	lv := local.SearchVectorUnit("titleVector", qv, 5, nil)
	if got, want := fmt.Sprintf("%#v", rv), fmt.Sprintf("%#v", lv); got != want {
		t.Errorf("SearchVectorUnit: remote %s local %s", got, want)
	}

	// Document access.
	if doc, ok := c.DocByID("kb00005#0"); !ok || doc.ID != "kb00005#0" {
		t.Errorf("DocByID: got %v %v", doc, ok)
	}
	if _, ok := c.DocByID("kb00007#0"); ok {
		t.Error("DocByID returned a deleted chunk")
	}
	if got, want := len(c.LiveDocs()), local.LiveLen(); got != want {
		t.Errorf("LiveDocs: %d docs, want %d", got, want)
	}
	if got, want := c.HasParent("kb00005"), true; got != want {
		t.Errorf("HasParent: %v", got)
	}
	if ids := c.ParentChunkIDs("kb00005"); len(ids) == 0 {
		t.Error("ParentChunkIDs empty")
	}

	// Snapshot round trip: the remote snapshot restores to the same corpus.
	var snap bytes.Buffer
	if err := c.Save(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := index.ReadSegmented(&snap, cfg, seg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.LiveLen(), local.LiveLen(); got != want {
		t.Errorf("restored snapshot holds %d live chunks, want %d", got, want)
	}
}

// TestServerIsolatesShards verifies one server hosts independent stores per
// logical shard id.
func TestServerIsolatesShards(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	c0 := NewClient(ClientConfig{Addr: srv.Addr(), Shard: 0})
	c1 := NewClient(ClientConfig{Addr: srv.Addr(), Shard: 1})
	defer c0.Close()
	defer c1.Close()
	if err := c0.Add(testDoc(1)); err != nil {
		t.Fatal(err)
	}
	if got := c0.Len(); got != 1 {
		t.Fatalf("shard 0 holds %d docs, want 1", got)
	}
	if got := c1.Len(); got != 0 {
		t.Fatalf("shard 1 holds %d docs, want 0", got)
	}
}

// TestGroupFailover proves a replica group survives a dead endpoint: with
// one live and one unreachable replica, every read still succeeds.
func TestGroupFailover(t *testing.T) {
	cfg := testConfig()
	srv := startServer(t, ServerConfig{Index: cfg})
	live := NewClient(ClientConfig{Addr: srv.Addr(), Shard: 0, DialTimeout: 500 * time.Millisecond})
	// A listener we close immediately gives a port that refuses connections.
	deadSrv := startServer(t, ServerConfig{Index: cfg})
	deadAddr := deadSrv.Addr()
	deadSrv.Close()
	dead := NewClient(ClientConfig{Addr: deadAddr, Shard: 0, DialTimeout: 500 * time.Millisecond})

	for name, g := range map[string]*Group{
		"dead-first": NewGroup([]*Client{dead, live}, time.Millisecond),
		"live-first": NewGroup([]*Client{live, dead}, time.Millisecond),
	} {
		if err := g.AddBulk([]index.Document{testDoc(0), testDoc(1)}); err == nil {
			t.Errorf("%s: write fan-out hid the dead replica", name)
		}
		hits, err := g.SearchText(context.Background(), "documento", 5, index.TextOptions{})
		if err != nil {
			t.Fatalf("%s: read did not fail over: %v", name, err)
		}
		if len(hits) == 0 {
			t.Fatalf("%s: no hits from the live replica", name)
		}
	}
}

// TestGroupAllReplicasDown: when every replica is unreachable the group
// reports an error (which the facade converts into a shard-down
// degradation).
func TestGroupAllReplicasDown(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	addr := srv.Addr()
	srv.Close()
	dead := NewClient(ClientConfig{Addr: addr, Shard: 0, DialTimeout: 200 * time.Millisecond})
	g := NewGroup([]*Client{dead}, time.Millisecond)
	if _, err := g.SearchText(context.Background(), "x", 5, index.TextOptions{}); err == nil {
		t.Fatal("want error when all replicas are down")
	}
}

// TestPlacement checks the consistent-hash placement invariants.
func TestPlacement(t *testing.T) {
	endpoints := []string{"a:1", "b:1", "c:1", "d:1"}
	p := Placement(endpoints, 8, 2)
	if len(p) != 8 {
		t.Fatalf("placement covers %d shards, want 8", len(p))
	}
	for s, replicas := range p {
		if len(replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", s, len(replicas))
		}
		if replicas[0] == replicas[1] {
			t.Fatalf("shard %d placed both replicas on %s", s, replicas[0])
		}
	}
	// Deterministic.
	q := Placement(endpoints, 8, 2)
	if fmt.Sprintf("%v", p) != fmt.Sprintf("%v", q) {
		t.Fatal("placement is not deterministic")
	}
	// Clamped rf.
	if one := Placement([]string{"a:1"}, 4, 3); len(one[0]) != 1 {
		t.Fatalf("rf not clamped: %v", one[0])
	}
	// Removing one endpoint moves only a fraction of assignments.
	moved := 0
	reduced := Placement([]string{"a:1", "b:1", "c:1"}, 8, 2)
	_ = reduced
	for s := range p {
		if fmt.Sprintf("%v", p[s]) != fmt.Sprintf("%v", reduced[s]) {
			moved++
		}
	}
	if moved == 8 {
		t.Error("removing one endpoint reshuffled every shard")
	}
}

// TestTopologyBackends verifies endpoint breakers are shared across shards.
func TestTopologyBackends(t *testing.T) {
	top := Topology{Endpoints: []string{"a:1", "b:1"}, Shards: 4, Replication: 2}
	backends := top.Backends()
	if len(backends) != 4 {
		t.Fatalf("got %d backends, want 4", len(backends))
	}
	seen := make(map[string]int)
	for _, b := range backends {
		g := b.(*Group)
		for _, c := range g.Replicas() {
			if c.cfg.Breaker == nil {
				t.Fatal("client missing endpoint breaker")
			}
			seen[c.cfg.Breaker.Name()]++
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected 2 shared endpoint breakers, got %v", seen)
	}
}
