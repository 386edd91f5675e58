package search

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"uniask/internal/index"
	"uniask/internal/rerank"
	"uniask/internal/vector"
)

// bodyCounter renders a ranking as the render's sequence number followed by
// the chunk ids, so two renders of one ranking still differ: a body that
// repeats is a body that was not rendered again.
type bodyCounter struct{ n atomic.Int64 }

func (b *bodyCounter) render(rs []Result) []byte {
	out := strconv.AppendInt(nil, b.n.Add(1), 10)
	for _, r := range rs {
		out = append(out, ' ')
		out = append(out, r.ChunkID...)
	}
	return out
}

// renderedBody runs one search and renders it, reporting whether it was a
// cache hit.
func renderedBody(t *testing.T, s *Searcher, b *bodyCounter, query string) (body []byte, hit bool) {
	t.Helper()
	hits, err := s.SearchDegraded(context.Background(), query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return hits.Render(b.render), hits.entry != nil
}

// warmBody caches query and renders its entry's body through one hit.
func warmBody(t *testing.T, s *Searcher, b *bodyCounter, query string) []byte {
	t.Helper()
	if _, hit := renderedBody(t, s, b, query); hit {
		t.Fatalf("first search for %q hit the cache", query)
	}
	body, hit := renderedBody(t, s, b, query)
	if !hit {
		t.Fatalf("repeat search for %q missed the cache", query)
	}
	return body
}

// TestRenderOncePerEntry: a miss renders per call, the first hit renders
// into the entry, and every later hit returns those very bytes.
func TestRenderOncePerEntry(t *testing.T) {
	s, _ := cachedSearcher(t, 0)
	var b bodyCounter
	const query = "bloccare la carta di credito"
	miss, hit := renderedBody(t, s, &b, query)
	if hit || b.n.Load() != 1 {
		t.Fatalf("miss: hit=%v renders=%d, want a miss rendered once", hit, b.n.Load())
	}
	one, _ := renderedBody(t, s, &b, query)
	two, _ := renderedBody(t, s, &b, query)
	if got := b.n.Load(); got != 2 {
		t.Fatalf("a miss and two hits rendered %d times, want 2", got)
	}
	if &one[0] != &two[0] {
		t.Fatal("two hits on one entry returned different bodies")
	}
	if bytes.Equal(one, miss) {
		t.Fatal("the hit replayed the miss's per-request body")
	}
}

// TestRenderedBodyInvalidation: every way an entry dies or is replaced
// leaves the next hit with a freshly rendered body.
func TestRenderedBodyInvalidation(t *testing.T) {
	const query = "procedura di apertura del conto corrente"
	cases := []struct {
		name       string
		capacity   int
		invalidate func(t *testing.T, s *Searcher, ce *embedCounter, cached []Result)
		// deleteEvictions is what the cache must count afterwards: only the
		// delete case may take the journal channel.
		deleteEvictions uint64
	}{
		{"stats rotation", 0, func(t *testing.T, s *Searcher, ce *embedCounter, _ []Result) {
			content := "La nuova procedura di apertura del conto corrente online."
			err := s.Index.(index.Writer).Add(index.Document{
				ID: "d9#0", ParentID: "d9",
				Fields:  map[string]string{"title": "Conto online", "content": content},
				Vectors: map[string]vector.Vector{"contentVector": ce.inner.Embed(content)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"delete journal", 0, func(t *testing.T, s *Searcher, _ *embedCounter, cached []Result) {
			if !s.Index.(index.Writer).Delete(cached[len(cached)-1].ChunkID) {
				t.Fatal("delete failed")
			}
		}, 1},
		{"rerank recalibration", 0, func(t *testing.T, s *Searcher, _ *embedCounter, cached []Result) {
			s.Reranker.Recalibrate(rerank.Click{Query: query, Clicked: rerank.Input{
				Title: cached[0].Title, Content: cached[0].Content,
			}})
		}, 0},
		{"lru eviction and re-store", 1, func(t *testing.T, s *Searcher, _ *embedCounter, _ []Result) {
			if _, err := s.Search(context.Background(), "bonifico estero", Options{}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"purge", 0, func(_ *testing.T, s *Searcher, _ *embedCounter, _ []Result) {
			s.Cache.Purge()
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ce := cachedSearcher(t, tc.capacity)
			var b bodyCounter
			old := warmBody(t, s, &b, query)
			hits, err := s.SearchDegraded(context.Background(), query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tc.invalidate(t, s, ce, hits.Results)
			fresh := warmBody(t, s, &b, query)
			if bytes.Equal(fresh, old) {
				t.Fatalf("hit after %s replayed the old body %q", tc.name, old)
			}
			if again, _ := renderedBody(t, s, &b, query); !bytes.Equal(again, fresh) {
				t.Fatalf("second hit after %s rendered again: %q then %q", tc.name, fresh, again)
			}
			if got := s.Cache.Stats().DeleteEvictions; got != tc.deleteEvictions {
				t.Fatalf("delete evictions = %d, want %d", got, tc.deleteEvictions)
			}
		})
	}
}

// TestRenderedBodySameKeyRefresh: storing a key again at a new snapshot
// installs a new entry with an empty slot, while a hit that still holds the
// old entry keeps the body of the results it was handed.
func TestRenderedBodySameKeyRefresh(t *testing.T) {
	c := NewQueryCache(0)
	var b bodyCounter
	store := func(snap uint64, id string) {
		f, _ := c.join("k", snap)
		c.complete("k", snap, f, []Result{{ChunkID: id}}, Degradation{}, nil, true)
	}
	hit := func(snap uint64) Hits {
		e, ok := c.lookup([]byte("k"), snap)
		if !ok {
			t.Fatalf("no entry at snapshot %d", snap)
		}
		return Hits{Results: e.results, Degradation: e.deg, entry: e}
	}
	store(1, "a#0")
	old := hit(1)
	if got := string(old.Render(b.render)); got != "1 a#0" {
		t.Fatalf("first body = %q", got)
	}
	store(2, "b#0")
	if got := string(hit(2).Render(b.render)); got != "2 b#0" {
		t.Fatalf("body after the refresh = %q, want a fresh render of the new results", got)
	}
	if got := string(old.Render(b.render)); got != "1 a#0" {
		t.Fatalf("old hit's body = %q, want the body of its own results", got)
	}
}

// TestRenderedBodyTenantPartitions: two tenants asking the same text hold
// two entries in two partitions, and each renders its own body.
func TestRenderedBodyTenantPartitions(t *testing.T) {
	base, _ := buildSearcher(t)
	pool := NewCachePool(0, 0)
	sA, sB := *base, *base
	sA.Cache, sB.Cache = pool.Partition("banca-alfa", 0), pool.Partition("banca-beta", 0)
	var b bodyCounter
	const query = "bonifico estero"
	bodyA := warmBody(t, &sA, &b, query)
	bodyB := warmBody(t, &sB, &b, query)
	if bytes.Equal(bodyA, bodyB) {
		t.Fatalf("two partitions share the body %q", bodyA)
	}
	if again, _ := renderedBody(t, &sA, &b, query); !bytes.Equal(again, bodyA) {
		t.Fatalf("tenant A's body changed after tenant B's hit: %q then %q", bodyA, again)
	}
}

// TestRenderOnceConcurrentHits: 16 goroutines hitting one entry nobody has
// rendered yet share one render. Run with -race.
func TestRenderOnceConcurrentHits(t *testing.T) {
	s, _ := cachedSearcher(t, 0)
	const query = "errore ERR-4032 durante il bonifico"
	if _, err := s.Search(context.Background(), query, Options{}); err != nil {
		t.Fatal(err)
	}
	var b bodyCounter
	const goroutines = 16
	bodies := make([][]byte, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			hits, err := s.SearchDegraded(context.Background(), query, Options{})
			if err != nil || hits.entry == nil {
				t.Errorf("goroutine %d: err=%v hit=%v", i, err, hits.entry != nil)
				return
			}
			bodies[i] = hits.Render(b.render)
		}(i)
	}
	close(start)
	wg.Wait()
	if got := b.n.Load(); got != 1 {
		t.Fatalf("%d concurrent hits rendered %d times, want 1", goroutines, got)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, bodies[0]) {
			t.Fatalf("goroutine %d got %q, goroutine 0 %q", i, body, bodies[0])
		}
	}
}
