package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"uniask/internal/vector"
)

// benchCorpus generates the warm 2000-doc corpus the query micro-benchmarks
// run against: realistic Italian banking text with shared vocabulary (so
// posting lists are long), four filterable domains, and 64-dim vectors in
// both vector fields. Returns the documents plus a query vector drawn from
// the same distribution.
func benchCorpus() ([]Document, vector.Vector) {
	rng := rand.New(rand.NewSource(42))
	subjects := []string{
		"carta di credito", "bonifico estero", "conto corrente",
		"mutuo prima casa", "prestito personale", "deposito titoli",
	}
	actions := []string{"bloccare", "aprire", "chiudere", "modificare", "verificare", "autorizzare"}
	domains := []string{"prodotti", "pagamenti", "errori", "normativa"}
	dim := 64
	docs := make([]Document, 0, 2000)
	for i := 0; i < 2000; i++ {
		subj := subjects[i%len(subjects)]
		act := actions[(i/len(subjects))%len(actions)]
		title := fmt.Sprintf("Procedura %d: %s %s", i, act, subj)
		content := fmt.Sprintf(
			"La procedura operativa %d per %s il servizio %s prevede passaggi autorizzativi, "+
				"controlli di conformità interni e la verifica del codice cliente PRC-%04d.",
			i, act, subj, i%97)
		tv := make(vector.Vector, dim)
		cv := make(vector.Vector, dim)
		for j := 0; j < dim; j++ {
			tv[j] = float32(rng.NormFloat64())
			cv[j] = float32(rng.NormFloat64())
		}
		docs = append(docs, Document{
			ID:       fmt.Sprintf("d%04d#0", i),
			ParentID: fmt.Sprintf("d%04d", i),
			Fields: map[string]string{
				"title":   title,
				"content": content,
				"domain":  domains[i%len(domains)],
				"topic":   subj,
			},
			Vectors: map[string]vector.Vector{
				"titleVector":   tv,
				"contentVector": cv,
			},
		})
	}
	q := make(vector.Vector, dim)
	for j := 0; j < dim; j++ {
		q[j] = float32(rng.NormFloat64())
	}
	return docs, q
}

// benchIndex loads the benchCorpus into a monolithic index.
func benchIndex(tb testing.TB) (*Index, vector.Vector) {
	tb.Helper()
	docs, q := benchCorpus()
	ix := New(Config{})
	for _, doc := range docs {
		if err := ix.Add(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return ix, q
}

// BenchmarkSearchText is the headline hot-path benchmark: BM25 over two
// searchable fields, top-50 of ~2000 matching candidates.
func BenchmarkSearchText(b *testing.B) {
	ix, _ := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchText("procedura autorizzativa per verificare il conto corrente", 50, TextOptions{})
	}
}

// BenchmarkSearchTextFiltered adds a conjunctive filter, exercising the
// filter path on every posting.
func BenchmarkSearchTextFiltered(b *testing.B) {
	ix, _ := benchIndex(b)
	opts := TextOptions{Filters: []Filter{{Field: "domain", Value: "prodotti"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchText("procedura autorizzativa per verificare il conto corrente", 50, opts)
	}
}

// BenchmarkSearchTextTitleBoost exercises the weighted-field path used by
// the paper's T5/T50/T500 experiments.
func BenchmarkSearchTextTitleBoost(b *testing.B) {
	ix, _ := benchIndex(b)
	opts := TextOptions{FieldWeights: map[string]float64{"title": 50}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchText("procedura autorizzativa per verificare il conto corrente", 50, opts)
	}
}

// BenchmarkSearchVector times one ANN leg (k=15, the deployed K).
func BenchmarkSearchVector(b *testing.B) {
	ix, q := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchVector("contentVector", q, 15, nil)
	}
}

// BenchmarkSearchVectorFiltered times the filtered ANN leg (over-fetch +
// post-filter).
func BenchmarkSearchVectorFiltered(b *testing.B) {
	ix, q := benchIndex(b)
	filters := []Filter{{Field: "domain", Value: "pagamenti"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchVector("contentVector", q, 15, filters)
	}
}

// BenchmarkFilterSet times resolving a two-term conjunctive filter to the
// allowed-document set (cached bitsets intersected by AND).
func BenchmarkFilterSet(b *testing.B) {
	ix, _ := benchIndex(b)
	filters := []Filter{
		{Field: "domain", Value: "prodotti"},
		{Field: "topic", Value: "carta di credito"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.mu.RLock()
		ix.filterBits(filters)
		ix.mu.RUnlock()
	}
}

// residentDim is the production embedding width (embedding.DefaultDim).
const residentDim = 256

// residentChunks builds n two-field chunks the way the indexer does: every
// chunk gets its own content vector, and the chunks of one page share one
// title vector slice (every fourth chunk is its page's second).
func residentChunks(n int, rng *rand.Rand) []Document {
	vec := func() vector.Vector {
		v := make(vector.Vector, residentDim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		return v
	}
	docs := make([]Document, n)
	page, title := 0, vector.Vector(nil)
	for i := range docs {
		if i%4 != 1 {
			page, title = page+1, vec()
		}
		docs[i] = Document{
			ID:       fmt.Sprintf("r%05d#%d", page, i),
			ParentID: fmt.Sprintf("r%05d", page),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d per il conto corrente", page),
				"content": fmt.Sprintf("La procedura operativa %d prevede controlli sul conto e la verifica del codice PRC-%04d.", i, i%97),
			},
			Vectors: map[string]vector.Vector{"titleVector": title, "contentVector": vec()},
		}
	}
	return docs
}

// BenchmarkResidentBytes reports what a sealed store keeps resident per
// chunk: the live heap after a forced GC, with the store alive and the
// caller's documents dropped, less the heap before the documents were made
// — postings, graphs, documents and every vector the store still holds.
func BenchmarkResidentBytes(b *testing.B) {
	const chunks = 1000
	rng := rand.New(rand.NewSource(7))
	var resident float64
	for i := 0; i < b.N; i++ {
		base := liveHeap()
		s := NewSegmented(Config{}, SegmentConfig{CompactionFanIn: -1})
		if err := s.AddBulk(residentChunks(chunks, rng)); err != nil {
			b.Fatal(err)
		}
		s.Publish()
		resident = float64(liveHeap() - base)
		runtime.KeepAlive(s)
	}
	b.ReportMetric(resident/chunks, "B-resident/chunk")
}

// liveHeap is HeapAlloc after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
