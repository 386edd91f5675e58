package index

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uniask/internal/vector"
)

// smallIndex builds a compact corpus with vectors for the concurrency and
// allocation tests (the 2000-doc bench corpus is too slow to build per test).
func smallIndex(tb testing.TB, docs int) (*Index, vector.Vector) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	ix := New(Config{})
	domains := []string{"prodotti", "pagamenti", "errori"}
	dim := 16
	for i := 0; i < docs; i++ {
		v := make(vector.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		err := ix.Add(Document{
			ID:       fmt.Sprintf("c%03d#0", i),
			ParentID: fmt.Sprintf("c%03d", i),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d per il conto corrente", i),
				"content": fmt.Sprintf("La procedura operativa %d prevede controlli sul conto e verifica del codice PRC-%03d.", i, i%37),
				"domain":  domains[i%len(domains)],
			},
			Vectors: map[string]vector.Vector{"contentVector": v},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	q := make(vector.Vector, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	return ix, q
}

// TestConcurrentSearchWithLiveWriter races text and vector searches, filtered
// variants, and metadata reads against a live stream of Add/Delete/
// DeleteParent calls. Run under -race (the Makefile's check target does) it
// verifies the RWMutex discipline of the index.
func TestConcurrentSearchWithLiveWriter(t *testing.T) {
	ix, q := smallIndex(t, 300)
	filters := []Filter{{Field: "domain", Value: "prodotti"}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	reader := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}

	reader(func() { ix.SearchText("procedura per verificare il conto corrente", 20, TextOptions{}) })
	reader(func() {
		ix.SearchText("controlli sul conto", 20, TextOptions{Filters: filters})
	})
	reader(func() { ix.SearchVector("contentVector", q, 10, nil) })
	reader(func() { ix.SearchVector("contentVector", q, 10, filters) })
	reader(func() { ix.SearchVector("titleVector", q, 10, nil) })
	reader(func() {
		ix.DocByID("c005#0")
		ix.LiveLen()
		ix.Tombstones()
	})

	// Writer: interleave adds, deletes and parent deletes. Added pages carry
	// both vector fields, so each Add inserts into two graphs at once.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		switch i % 3 {
		case 0:
			v := make(vector.Vector, 16)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			err := ix.Add(Document{
				ID:       fmt.Sprintf("w%03d#0", i),
				ParentID: fmt.Sprintf("w%03d", i),
				Fields: map[string]string{
					"title":   fmt.Sprintf("Nuova procedura %d", i),
					"content": "Aggiornamento della procedura per il conto corrente.",
					"domain":  "prodotti",
				},
				Vectors: map[string]vector.Vector{"contentVector": v, "titleVector": v},
			})
			if err != nil {
				t.Error(err)
			}
		case 1:
			ix.Delete(fmt.Sprintf("c%03d#0", i))
		case 2:
			ix.DeleteParent(fmt.Sprintf("c%03d", i+100))
		}
	}
	close(stop)
	wg.Wait()

	if hits := ix.SearchText("procedura conto corrente", 10, TextOptions{}); len(hits) == 0 {
		t.Fatal("no hits after concurrent mutation")
	}
}

// TestSegmentedIngestWhileQuery is the live-ingestion stress test for the
// segmented store: readers hammer text/vector search and the gauge surfaces
// while one writer streams adds, deletes and publications, with a memtable
// small enough that seals and background compactions fire mid-query. Run
// under -race (the Makefile's check target does) it verifies the store-level
// lock discipline: seal re-labels, compaction splices, stats-snapshot and
// journal reads must all be tear-free. After quiescing it checks no document
// was lost or duplicated across the part topology and that the final ranking
// matches a monolithic index over the surviving documents.
func TestSegmentedIngestWhileQuery(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 24, CompactionFanIn: 2})
	// Per-document rng so the monolithic reference below can regenerate the
	// exact same corpus without replaying one shared stream.
	mkDoc := func(i int) Document {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		v := make(vector.Vector, 16)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		return Document{
			ID:       fmt.Sprintf("g%03d#0", i),
			ParentID: fmt.Sprintf("g%03d", i),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d per il conto corrente", i),
				"content": fmt.Sprintf("La procedura operativa %d prevede controlli sul conto e verifica del codice PRC-%03d.", i, i%37),
				"domain":  []string{"prodotti", "pagamenti", "errori"}[i%3],
			},
			Vectors: map[string]vector.Vector{"contentVector": v},
		}
	}
	const preload = 60
	for i := 0; i < preload; i++ {
		if err := seg.Add(mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	qrng := rand.New(rand.NewSource(17))
	q := make(vector.Vector, 16)
	for j := range q {
		q[j] = float32(qrng.NormFloat64())
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	reader := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	reader(func() {
		hits := seg.SearchText("procedura per verificare il conto corrente", 20, TextOptions{})
		seen := make(map[string]bool, len(hits))
		for _, h := range hits {
			if seen[h.ID] {
				t.Errorf("duplicate id %s in one result set", h.ID)
				return
			}
			seen[h.ID] = true
		}
	})
	reader(func() { seg.SearchVector("contentVector", q, 10, nil) })
	reader(func() {
		seg.DocByID("g005#0")
		seg.LiveLen()
		seg.StatsKey()
		seg.SegmentStats()
		seg.DeletesSince(0)
	})

	// Writer: stream adds, deletes and explicit publications.
	deleted := make(map[string]bool)
	for i := preload; i < preload+180; i++ {
		if err := seg.Add(mkDoc(i)); err != nil {
			t.Error(err)
		}
		if i%3 == 0 {
			victim := fmt.Sprintf("g%03d#0", i-preload)
			if seg.Delete(victim) {
				deleted[victim] = true
			}
		}
		if i%25 == 0 {
			seg.Publish()
		}
	}
	close(stop)
	wg.Wait()
	seg.Publish()
	seg.WaitCompaction()
	// A sentinel document forces one final seal; the full merge then
	// reclaims every tombstone (the policy alone does so lazily) so the
	// reference below can replay exact statistics.
	if err := seg.Add(mkDoc(preload + 180)); err != nil {
		t.Fatal(err)
	}
	seg.Publish()
	seg.WaitCompaction()
	if err := seg.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := seg.Tombstones(); got != 0 {
		t.Fatalf("final compaction left %d tombstones", got)
	}

	// Quiesced invariants: exact survivor set, no duplicates.
	want := preload + 181 - len(deleted)
	if got := seg.LiveLen(); got != want {
		t.Fatalf("live count after quiesce = %d, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, d := range seg.LiveDocs() {
		if seen[d.ID] {
			t.Fatalf("duplicate live document %s across parts", d.ID)
		}
		seen[d.ID] = true
		if deleted[d.ID] {
			t.Fatalf("deleted document %s still live", d.ID)
		}
	}

	// Ranking parity: a monolithic index replaying the same add+delete
	// history, compacted tombstone-free like the quiesced segmented store,
	// must produce a byte-identical ranking.
	replay := New(Config{})
	for i := 0; i <= preload+180; i++ {
		if err := replay.Add(mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	for id := range deleted {
		if !replay.Delete(id) {
			t.Fatalf("reference delete %s failed", id)
		}
	}
	mono, err := replay.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if mono.LiveLen() != seg.LiveLen() {
		t.Fatalf("reference live %d, segmented %d", mono.LiveLen(), seg.LiveLen())
	}
	query := "procedura per verificare il conto corrente"
	wantHits := mono.SearchText(query, 20, TextOptions{})
	gotHits := seg.SearchText(query, 20, TextOptions{})
	if len(wantHits) != len(gotHits) {
		t.Fatalf("quiesced ranking has %d hits, monolithic %d", len(gotHits), len(wantHits))
	}
	for i := range wantHits {
		if wantHits[i].ID != gotHits[i].ID || wantHits[i].Score != gotHits[i].Score {
			t.Fatalf("quiesced hit %d = {%s %v}, monolithic {%s %v}",
				i, gotHits[i].ID, gotHits[i].Score, wantHits[i].ID, wantHits[i].Score)
		}
	}
}

// TestSearchTextAllocs guards the zero-allocation hot path: a warm SearchText
// must stay within a small constant allocation budget (term slice, hit slice,
// nothing per-posting). The measured value is ~10; the threshold leaves slack
// for runtime noise while still catching a reintroduced per-query map or
// per-token copy (which costs hundreds).
func TestSearchTextAllocs(t *testing.T) {
	ix := New(Config{})
	for i := 0; i < 500; i++ {
		err := ix.Add(Document{
			ID:       fmt.Sprintf("a%03d#0", i),
			ParentID: fmt.Sprintf("a%03d", i),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d verificare conto corrente", i),
				"content": fmt.Sprintf("La procedura autorizzativa %d per il conto corrente prevede controlli.", i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	query := "procedura autorizzativa per verificare il conto corrente"
	// Warm the accumulator pool.
	ix.SearchText(query, 50, TextOptions{})
	allocs := testing.AllocsPerRun(50, func() {
		ix.SearchText(query, 50, TextOptions{})
	})
	if allocs > 30 {
		t.Fatalf("SearchText allocated %.0f times per run, want <= 30", allocs)
	}
}

// TestSearchTextAllocsSegmented extends the allocation guard to the
// multi-part path: searching 4 sealed segments plus a live memtable pays a
// per-part constant (stats collection, per-part hit slices, the final merge)
// but must stay bounded — no per-posting or per-document allocations. The
// measured value is ~60 on 5 parts; 120 leaves slack for runtime noise while
// still catching an accidental per-hit copy or per-query map.
func TestSearchTextAllocsSegmented(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 128, CompactionFanIn: -1})
	for i := 0; i < 500; i++ {
		err := seg.Add(Document{
			ID:       fmt.Sprintf("a%03d#0", i),
			ParentID: fmt.Sprintf("a%03d", i),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d verificare conto corrente", i),
				"content": fmt.Sprintf("La procedura autorizzativa %d per il conto corrente prevede controlli.", i),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := seg.SegmentStats(); st.Segments < 3 {
		t.Fatalf("fixture must span several parts, got %+v", st)
	}
	query := "procedura autorizzativa per verificare il conto corrente"
	// Warm the accumulator pools in every part.
	seg.SearchText(query, 50, TextOptions{})
	allocs := testing.AllocsPerRun(50, func() {
		seg.SearchText(query, 50, TextOptions{})
	})
	if allocs > 120 {
		t.Fatalf("segmented SearchText allocated %.0f times per run, want <= 120", allocs)
	}
}

// TestSearchVectorAllocs extends the allocation guard to the ANN leg: the
// pooled search state makes the walk itself allocation-free, leaving only
// the normalized query copy, the result slices and (when filtering) the
// accept closure. Budget 16 per the PR-7 acceptance bar; measured ~3.
func TestSearchVectorAllocs(t *testing.T) {
	ix, q := smallIndex(t, 500)
	// Warm the pooled search state.
	ix.SearchVector("contentVector", q, 15, nil)
	allocs := testing.AllocsPerRun(50, func() {
		ix.SearchVector("contentVector", q, 15, nil)
	})
	if allocs > 16 {
		t.Fatalf("SearchVector allocated %.0f times per run, want <= 16", allocs)
	}
}

// TestSearchVectorFilteredAllocs is the same guard with a filter pushed
// into the graph walk (measured ~4: + the accept closure).
func TestSearchVectorFilteredAllocs(t *testing.T) {
	ix, q := smallIndex(t, 500)
	filters := []Filter{{Field: "domain", Value: "pagamenti"}}
	ix.SearchVector("contentVector", q, 15, filters) // warm pool + filter bitset cache
	allocs := testing.AllocsPerRun(50, func() {
		ix.SearchVector("contentVector", q, 15, filters)
	})
	if allocs > 16 {
		t.Fatalf("filtered SearchVector allocated %.0f times per run, want <= 16", allocs)
	}
}

// TestSearchVectorFillsKUnderSelectiveFilter pins the filter-pushdown
// guarantee: with a filter matching few documents, the graph walk keeps
// traversing rejected nodes for connectivity until k accepted survivors are
// found, instead of silently under-filling the result (the failure mode of
// the fixed k*4 over-fetch this replaced).
func TestSearchVectorFillsKUnderSelectiveFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := New(Config{})
	dim := 16
	const total, rare = 400, 12
	for i := 0; i < total; i++ {
		v := make(vector.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		domain := "comune"
		if i%(total/rare) == 0 {
			domain = "raro"
		}
		err := ix.Add(Document{
			ID:       fmt.Sprintf("v%03d#0", i),
			ParentID: fmt.Sprintf("v%03d", i),
			Fields:   map[string]string{"content": "testo", "domain": domain},
			Vectors:  map[string]vector.Vector{"contentVector": v},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	q := make(vector.Vector, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	k := 10 // only ~12/400 docs pass the filter, so the walk must flood far
	hits := ix.SearchVector("contentVector", q, k, []Filter{{Field: "domain", Value: "raro"}})
	if len(hits) != k {
		t.Fatalf("got %d hits, want %d (filtered walk must keep traversing until k survivors)", len(hits), k)
	}
	for _, h := range hits {
		if doc, _ := ix.DocByID(h.ID); doc.Fields["domain"] != "raro" {
			t.Fatalf("hit %s has domain %q, want raro", h.ID, doc.Fields["domain"])
		}
	}
}

// TestSearchVectorEmptyFilter checks the selectivity estimate handles a
// filter value that matches nothing.
func TestSearchVectorEmptyFilter(t *testing.T) {
	ix, q := smallIndex(t, 50)
	hits := ix.SearchVector("contentVector", q, 5, []Filter{{Field: "domain", Value: "inesistente"}})
	if len(hits) != 0 {
		t.Fatalf("got %d hits for a filter matching nothing", len(hits))
	}
}
