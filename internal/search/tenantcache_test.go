package search

import (
	"context"
	"fmt"
	"testing"

	"uniask/internal/index"
	"uniask/internal/vector"
)

func TestCachePoolPartitioning(t *testing.T) {
	p := NewCachePool(100, 30)

	a := p.Partition("bank-a", 0) // default share
	if a == nil {
		t.Fatal("partition with default share is nil")
	}
	if again := p.Partition("bank-a", 50); again != a {
		t.Fatal("second Partition call for the same tenant returned a different cache")
	}
	b := p.Partition("bank-b", 60)
	if b == nil || b == a {
		t.Fatal("partitions must be distinct caches")
	}
	// Budget: 100 total, 30 to a, 60 to b → 10 remain; c asks 50, clamped.
	p.Partition("bank-c", 50)
	// d arrives with the budget exhausted: still gets a minimal partition.
	if d := p.Partition("bank-d", 20); d == nil {
		t.Fatal("exhausted budget must yield a minimal partition, not nil")
	}
	// Opt-out tenant gets no cache at all.
	if e := p.Partition("bank-e", -1); e != nil {
		t.Fatal("negative share must disable caching")
	}

	rows := p.Stats()
	want := map[string]int{"bank-a": 30, "bank-b": 60, "bank-c": 10, "bank-d": 1}
	if len(rows) != len(want) {
		t.Fatalf("stats rows = %d, want %d (%+v)", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if want[r.Tenant] != r.Share {
			t.Errorf("tenant %s share = %d, want %d", r.Tenant, r.Share, want[r.Tenant])
		}
	}
}

// TestCachePoolPartitionIsolation is the satellite requirement: tenant A's
// ingest (which rotates A's stats snapshot and floods A's cache) must never
// evict tenant B's cached queries. Isolation is structural — disjoint
// LRUs — and this test proves it end to end through two searchers.
func TestCachePoolPartitionIsolation(t *testing.T) {
	pool := NewCachePool(0, 4)

	// Two tenants, two engines: same corpus shape, disjoint cache partitions.
	sA, embA := buildSearcher(t)
	sA.Cache = pool.Partition("bank-a", 4)
	sB, embB := buildSearcher(t)
	ceB := &embedCounter{inner: embB}
	sB.Embedder = ceB
	sB.Cache = pool.Partition("bank-b", 4)

	ctx := context.Background()
	queryB := "bloccare la carta di credito"
	if _, err := sB.Search(ctx, queryB, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ceB.n.Load(); got != 1 {
		t.Fatalf("priming search ran %d embeds", got)
	}

	// Tenant A churns: ingest (rotates A's snapshot key) plus a flood of
	// distinct queries far beyond A's share, which would evict everything in
	// a shared LRU.
	for i := 0; i < 3; i++ {
		err := sA.Index.(*index.Index).Add(index.Document{
			ID: fmt.Sprintf("churn%d#0", i), ParentID: fmt.Sprintf("churn%d", i),
			Fields: map[string]string{"title": "Nuova circolare", "content": fmt.Sprintf("Aggiornamento numero %d alla procedura operativa.", i)},
			Vectors: map[string]vector.Vector{
				"titleVector":   embA.Embed("Nuova circolare"),
				"contentVector": embA.Embed("procedura operativa"),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if _, err := sA.Search(ctx, fmt.Sprintf("procedura operativa %d %d", i, j), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Tenant B's entry must still be warm: the repeat is a hit, no recompute.
	if _, err := sB.Search(ctx, queryB, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ceB.n.Load(); got != 1 {
		t.Fatalf("tenant A churn evicted tenant B's entry: B recomputed (embeds = %d, want 1)", got)
	}
	stB := sB.Cache.Stats()
	if stB.Hits != 1 {
		t.Fatalf("tenant B stats = %+v, want exactly 1 hit", stB)
	}
	// And A's own partition stayed within its share.
	if stA := sA.Cache.Stats(); stA.Entries > 4 {
		t.Fatalf("tenant A partition holds %d entries, share is 4", stA.Entries)
	}
}
