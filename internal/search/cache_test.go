package search

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// embedCounter counts EmbedCtx calls: the embed stage runs exactly once per
// uncached search, so the counter measures how many searches actually
// executed versus were served from cache.
type embedCounter struct {
	inner *embedding.Synth
	n     atomic.Int64
}

func (c *embedCounter) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	c.n.Add(1)
	return c.inner.EmbedCtx(ctx, text)
}

func (c *embedCounter) Dim() int { return c.inner.Dim() }

// cachedSearcher wraps buildSearcher's corpus with a counting embedder and a
// query cache.
func cachedSearcher(t *testing.T, capacity int) (*Searcher, *embedCounter) {
	t.Helper()
	s, emb := buildSearcher(t)
	ce := &embedCounter{inner: emb}
	s.Embedder = ce
	s.Cache = NewQueryCache(capacity)
	return s, ce
}

func TestCacheServesRepeatedQuery(t *testing.T) {
	s, ce := cachedSearcher(t, 0)
	ctx := context.Background()
	first, err := s.Search(ctx, "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Search(ctx, "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 1 {
		t.Fatalf("embed ran %d times, want 1 (second search must hit the cache)", got)
	}
	if len(first) != len(second) {
		t.Fatalf("cached result length %d != fresh %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached result[%d] = %+v, fresh %+v", i, second[i], first[i])
		}
	}
	st := s.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheEpochInvalidation verifies both invalidation channels on a plain
// mutable index: an Add rotates the stats snapshot key (every write to a
// plain index is immediately "published"), and a Delete flows through the
// journal to evict exactly the entry naming the chunk — either way the
// repeat query recomputes and sees the change.
func TestCacheEpochInvalidation(t *testing.T) {
	s, ce := cachedSearcher(t, 0)
	ctx := context.Background()
	query := "procedura di apertura del conto corrente"
	if _, err := s.Search(ctx, query, Options{}); err != nil {
		t.Fatal(err)
	}
	// Index a new chunk that is a near-verbatim match for the query.
	title := "Apertura conto corrente online"
	content := "La nuova procedura di apertura del conto corrente online è immediata."
	err := s.Index.(index.Writer).Add(index.Document{
		ID:       "d9#0",
		ParentID: "d9",
		Fields:   map[string]string{"title": title, "content": content},
		Vectors: map[string]vector.Vector{
			"titleVector":   ce.inner.Embed(title),
			"contentVector": ce.inner.Embed(content),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(ctx, query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 2 {
		t.Fatalf("embed ran %d times, want 2 (the add must invalidate the entry)", got)
	}
	found := false
	for _, r := range res {
		if r.ChunkID == "d9#0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recomputed results %+v miss the newly added chunk", res)
	}

	// Deleting also bumps the epoch: the same query recomputes again.
	if !s.Index.(index.Writer).Delete("d9#0") {
		t.Fatal("delete failed")
	}
	if _, err := s.Search(ctx, query, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 3 {
		t.Fatalf("embed ran %d times after delete, want 3", got)
	}
}

// TestCacheKeySensitivity verifies distinct options are distinct cache
// entries while a repeat of either is a hit.
func TestCacheKeySensitivity(t *testing.T) {
	s, ce := cachedSearcher(t, 0)
	ctx := context.Background()
	query := "bonifico estero"
	variants := []Options{
		{},
		{TitleBoost: 50},
		{Mode: TextOnly},
		{DisableSemanticRerank: true},
		{Filters: []index.Filter{{Field: "domain", Value: "prodotti"}}},
	}
	for i, opts := range variants {
		if _, err := s.Search(ctx, query, opts); err != nil {
			t.Fatal(err)
		}
		if got := ce.n.Load(); int(got) != i+1 {
			t.Fatalf("variant %d: embed ran %d times, want %d (options must key separately)", i, got, i+1)
		}
	}
	for _, opts := range variants {
		if _, err := s.Search(ctx, query, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := ce.n.Load(); int(got) != len(variants) {
		t.Fatalf("embed ran %d times after repeats, want %d (each repeat must hit)", got, len(variants))
	}
}

// TestCacheSingleflight verifies concurrent identical queries collapse into
// one execution.
func TestCacheSingleflight(t *testing.T) {
	s, ce := cachedSearcher(t, 0)
	ctx := context.Background()
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := s.Search(ctx, "errore ERR-4032 durante il bonifico", Options{})
			if err == nil && len(res) == 0 {
				errs <- context.Canceled // sentinel: empty result
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 1 {
		t.Fatalf("embed ran %d times for %d concurrent identical queries, want 1", got, goroutines)
	}
}

// TestCacheLRUEviction verifies the capacity bound evicts the least recently
// used entry.
func TestCacheLRUEviction(t *testing.T) {
	s, ce := cachedSearcher(t, 2)
	ctx := context.Background()
	queries := []string{"bloccare la carta", "bonifico estero", "apertura conto"}
	for _, q := range queries {
		if _, err := s.Search(ctx, q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Cache.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", st.Entries)
	}
	// The first query was evicted (capacity 2, LRU) and must recompute.
	if _, err := s.Search(ctx, queries[0], Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 4 {
		t.Fatalf("embed ran %d times, want 4 (first query must have been evicted)", got)
	}
	// The third query is still cached.
	if _, err := s.Search(ctx, queries[2], Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 4 {
		t.Fatalf("embed ran %d times, want 4 (third query must still be cached)", got)
	}
}

// TestCacheReturnsCopies verifies callers can mutate returned slices, from a
// miss or a hit, without corrupting the cached entry.
func TestCacheReturnsCopies(t *testing.T) {
	s, _ := cachedSearcher(t, 0)
	ctx := context.Background()
	first, err := s.Search(ctx, "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no results")
	}
	first[0].ChunkID = "corrupted"
	second, err := s.Search(ctx, "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].ChunkID == "corrupted" {
		t.Fatal("mutating a returned slice corrupted the cache")
	}
	// The second search was a hit: its slice must not be the entry's either.
	second[0].ChunkID = "corrupted"
	third, err := s.Search(ctx, "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if third[0].ChunkID == "corrupted" {
		t.Fatal("mutating a slice returned by a cache hit corrupted the cache")
	}
}

// TestCachePurge verifies Purge drops all entries (the LoadIndex path).
func TestCachePurge(t *testing.T) {
	s, ce := cachedSearcher(t, 0)
	ctx := context.Background()
	if _, err := s.Search(ctx, "bonifico estero", Options{}); err != nil {
		t.Fatal(err)
	}
	s.Cache.Purge()
	if st := s.Cache.Stats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after purge", st.Entries)
	}
	if _, err := s.Search(ctx, "bonifico estero", Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ce.n.Load(); got != 2 {
		t.Fatalf("embed ran %d times, want 2 (purge must force recompute)", got)
	}
}

// shardedCacheFixture builds a 4-shard facade behind a cached searcher and
// seeds the two-document idf setup shared by the survival and rotation
// tests: docA matches both query terms; docB matches "carta" with higher
// tf. While "rossa" is rare its idf dominates and A outranks B; once other
// shards fill with "rossa" documents the term is devalued and B wins.
func shardedCacheFixture(t *testing.T) (*shard.Sharded, *Searcher, func(id, content string)) {
	t.Helper()
	facade := shard.New(shard.Config{Shards: 4})
	s := &Searcher{
		Index:    facade,
		Embedder: embedding.NewSynth(16, nil),
		Cache:    NewQueryCache(0),
	}
	add := func(id, content string) {
		t.Helper()
		err := facade.Add(index.Document{
			ID: id, ParentID: id,
			Fields: map[string]string{"title": "pagina", "content": content},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("docA#0", "carta rossa")
	add("docB#0", "carta carta carta carta")
	return facade, s, add
}

// addFillers places n "rossa" documents on shards other than docA's and
// docB's home shards — unpublished memtable writes that shift global idf
// once they are published.
func addFillers(t *testing.T, facade *shard.Sharded, add func(id, content string), n int) {
	t.Helper()
	homeA, homeB := facade.ShardFor("docA#0"), facade.ShardFor("docB#0")
	fillers := 0
	for i := 0; fillers < n && i < 1000; i++ {
		id := fmt.Sprintf("fill%03d#0", i)
		if sh := facade.ShardFor(id); sh == homeA || sh == homeB {
			continue
		}
		add(id, "rossa")
		fillers++
	}
	if fillers != n {
		t.Fatalf("placed %d fillers off-shard, want %d", fillers, n)
	}
}

// TestCacheSurvivesUnpublishedShardWrites is the counterpart of the old
// TestCacheShardedEpochConservatism: with snapshot-keyed invalidation, a
// write absorbed by shard A's memtable but not yet published no longer
// evicts an entry whose results were scored only against shard B's
// segments. The test caches a query, floods other shards with term-bearing
// documents WITHOUT publishing, and asserts the repeat is a byte-identical
// hit with zero delete evictions — while a differently-keyed fresh query
// proves the unpublished writes are already searchable.
func TestCacheSurvivesUnpublishedShardWrites(t *testing.T) {
	facade, s, add := shardedCacheFixture(t)
	opts := Options{Mode: TextOnly, DisableSemanticRerank: true}
	ctx := context.Background()

	first, err := s.Search(ctx, "carta rossa", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 || first[0].ChunkID != "docA#0" {
		t.Fatalf("initial ranking = %+v, want docA#0 first", first)
	}

	addFillers(t, facade, add, 8)

	before := s.Cache.Stats()
	second, err := s.Search(ctx, "carta rossa", opts)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Cache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("unpublished writes evicted the entry: before=%+v after=%+v", before, after)
	}
	if after.DeleteEvictions != 0 {
		t.Fatalf("delete evictions = %d, want 0 (nothing was deleted)", after.DeleteEvictions)
	}
	if after.HitRate() <= 0 {
		t.Fatalf("hit rate gauge = %v, want > 0", after.HitRate())
	}
	if len(second) != len(first) {
		t.Fatalf("cached result length %d != original %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached result[%d] = %+v, original %+v", i, second[i], first[i])
		}
	}

	// The unpublished writes are still searchable right now: a fresh query
	// (different cache key) finds a filler immediately.
	fresh, err := s.Search(ctx, "rossa", Options{Mode: TextOnly, DisableSemanticRerank: true})
	if err != nil {
		t.Fatal(err)
	}
	foundFiller := false
	for _, r := range fresh {
		if r.ChunkID != "docA#0" && r.ChunkID != "docB#0" {
			foundFiller = true
		}
	}
	if !foundFiller {
		t.Fatalf("fresh query %+v misses the unpublished fillers", fresh)
	}
}

// TestCacheStatsRotationRecomputes shows why publication must rotate the
// snapshot key: BM25 idf is global, so publishing writes on one shard can
// flip the relative ranking of documents living entirely on other shards.
// After Publish seals the filler memtables, the cached entry lapses and the
// recomputed ranking genuinely changes — a per-shard "skip unchanged
// shards" scheme would have served the stale order forever.
func TestCacheStatsRotationRecomputes(t *testing.T) {
	facade, s, add := shardedCacheFixture(t)
	opts := Options{Mode: TextOnly, DisableSemanticRerank: true}
	ctx := context.Background()

	first, err := s.Search(ctx, "carta rossa", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 || first[0].ChunkID != "docA#0" {
		t.Fatalf("initial ranking = %+v, want docA#0 first", first)
	}

	addFillers(t, facade, add, 8)
	facade.Publish()

	before := s.Cache.Stats()
	second, err := s.Search(ctx, "carta rossa", opts)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Cache.Stats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits {
		t.Fatalf("publication did not force a recompute: before=%+v after=%+v", before, after)
	}
	if len(second) < 2 || second[0].ChunkID != "docB#0" {
		t.Fatalf("post-publication ranking = %+v, want docB#0 first (global idf shifted)", second)
	}
}

// TestCacheDeleteJournalPreciseEviction verifies the delete journal evicts
// exactly the entries whose results name a deleted chunk: the entry holding
// the victim recomputes, an unrelated entry keeps hitting, and no stats
// rotation occurs (deletes change no BM25 statistic).
func TestCacheDeleteJournalPreciseEviction(t *testing.T) {
	facade, s, add := shardedCacheFixture(t)
	opts := Options{Mode: TextOnly, DisableSemanticRerank: true}
	ctx := context.Background()
	add("docC#0", "prestito auto")

	if _, err := s.Search(ctx, "carta rossa", opts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(ctx, "prestito auto", opts); err != nil {
		t.Fatal(err)
	}

	if !facade.Delete("docC#0") {
		t.Fatal("delete failed")
	}

	// The unrelated entry survives and hits.
	before := s.Cache.Stats()
	if _, err := s.Search(ctx, "carta rossa", opts); err != nil {
		t.Fatal(err)
	}
	mid := s.Cache.Stats()
	if mid.Hits != before.Hits+1 {
		t.Fatalf("unrelated entry did not hit after delete: before=%+v after=%+v", before, mid)
	}
	if mid.DeleteEvictions != 1 {
		t.Fatalf("delete evictions = %d, want 1 (only the victim's entry)", mid.DeleteEvictions)
	}

	// The victim's entry was evicted and recomputes without the chunk.
	res, err := s.Search(ctx, "prestito auto", opts)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Cache.Stats()
	if after.Misses != mid.Misses+1 {
		t.Fatalf("victim entry was not evicted: mid=%+v after=%+v", mid, after)
	}
	for _, r := range res {
		if r.ChunkID == "docC#0" {
			t.Fatalf("recomputed results %+v still contain the deleted chunk", res)
		}
	}
}
