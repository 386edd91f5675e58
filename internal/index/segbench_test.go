package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"uniask/internal/vector"
)

// benchSegDoc generates the i-th streamed-ingest document: same vocabulary
// as benchIndex so posting lists stay long, with a vector drawn from a small
// pre-generated pool (vector contents don't affect text-path cost).
func benchSegDoc(i int, vecs []vector.Vector) Document {
	subjects := []string{
		"carta di credito", "bonifico estero", "conto corrente",
		"mutuo prima casa", "prestito personale", "deposito titoli",
	}
	actions := []string{"bloccare", "aprire", "chiudere", "modificare", "verificare", "autorizzare"}
	subj := subjects[i%len(subjects)]
	act := actions[(i/len(subjects))%len(actions)]
	return Document{
		ID:       fmt.Sprintf("w%06d#0", i),
		ParentID: fmt.Sprintf("w%06d", i),
		Fields: map[string]string{
			"title": fmt.Sprintf("Procedura live %d: %s %s", i, act, subj),
			"content": fmt.Sprintf(
				"La procedura operativa %d per %s il servizio %s prevede controlli e la verifica del codice PRC-%04d.",
				i, act, subj, i%97),
		},
		Vectors: map[string]vector.Vector{
			"contentVector": vecs[i%len(vecs)],
		},
	}
}

func benchVecPool(n, dim int, seed int64) []vector.Vector {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]vector.Vector, n)
	for i := range vecs {
		v := make(vector.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = v
	}
	return vecs
}

// benchSegmented builds the segmented counterpart of benchIndex: the same
// 2000-doc corpus sealed into multiple segments plus a live memtable, so the
// multi-part search path (stats merge + per-part scoring) is what's measured.
func benchSegmented(tb testing.TB) *Segmented {
	tb.Helper()
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 512, CompactionFanIn: -1})
	docs, _ := benchCorpus()
	for _, doc := range docs {
		if err := seg.Add(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return seg
}

// BenchmarkSearchTextSegmented is BenchmarkSearchText over the segmented
// store (4 sealed segments + memtable): the delta against the monolithic
// number is the cost of stats-merge fan-out, guarded by
// TestSearchTextAllocsSegmented.
func BenchmarkSearchTextSegmented(b *testing.B) {
	seg := benchSegmented(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.SearchText("procedura autorizzativa per verificare il conto corrente", 50, TextOptions{})
	}
}

// BenchmarkSearchTextLiveIngest measures query latency while a writer
// goroutine streams documents into the memtable and publishes periodically —
// the live-ingestion steady state. ns/op is mean query latency under ingest;
// the p99-ns/op metric is the tail the OPERATIONS runbook budgets for.
func BenchmarkSearchTextLiveIngest(b *testing.B) {
	seg := benchSegmented(b)
	vecs := benchVecPool(256, 64, 7)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := seg.Add(benchSegDoc(i, vecs)); err != nil {
				b.Error(err)
				return
			}
			if i%512 == 511 {
				seg.Publish()
			}
		}
	}()

	lat := make([]int64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		seg.SearchText("procedura autorizzativa per verificare il conto corrente", 50, TextOptions{})
		lat = append(lat, int64(time.Since(t0)))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	seg.WaitCompaction()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
}

// BenchmarkIngestSegmented measures sustained ingest throughput (docs/sec)
// while reader goroutines keep querying — writes must never stall behind the
// read path. ns/op is the per-document Add cost including amortized seals
// and background compaction.
func BenchmarkIngestSegmented(b *testing.B) {
	seg := benchSegmented(b)
	vecs := benchVecPool(256, 64, 9)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seg.SearchText("bloccare la carta di credito", 10, TextOptions{})
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := seg.Add(benchSegDoc(i, vecs)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	seg.WaitCompaction()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/sec")
}

// BenchmarkCompactionTrickle measures what the compactor pays for a trickle
// of page edits behind a bulk load: one 739-chunk segment, then 40 passes of
// 5 added chunks and 4 deleted pages, each published and compacted before
// the next (the ask_ingest writer's shape). ns/op is one whole trickle;
// chunks-rewritten/op is the counted result — 200 chunks are sealed per op,
// so rewritten ÷ 200 is the write amplification. Re-merging the big segment
// every few passes costs ~45x; the size-tiered pick ~2x.
func BenchmarkCompactionTrickle(b *testing.B) {
	const bulk, passes, perPass, deletesPerPass = 739, 40, 5, 4
	vecs := benchVecPool(256, 64, 11)
	var rewritten uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seg := NewSegmented(Config{}, SegmentConfig{})
		for d := 0; d < bulk; d++ {
			if err := seg.Add(benchSegDoc(d, vecs)); err != nil {
				b.Fatal(err)
			}
		}
		seg.Publish()
		seg.WaitCompaction()
		b.StartTimer()
		next := bulk
		for p := 0; p < passes; p++ {
			for k := 0; k < perPass; k++ {
				if err := seg.Add(benchSegDoc(next, vecs)); err != nil {
					b.Fatal(err)
				}
				next++
			}
			for k := 0; k < deletesPerPass; k++ {
				seg.DeleteParent(fmt.Sprintf("w%06d", p*deletesPerPass+k))
			}
			seg.Publish()
			seg.WaitCompaction()
		}
		rewritten += seg.SegmentStats().ChunksRewritten
	}
	b.ReportMetric(float64(rewritten)/float64(b.N), "chunks-rewritten/op")
}

// BenchmarkBulkLoad measures one 1 000-chunk bulk load into a fresh store
// (two vector fields, default memtable) while one reader keeps querying it:
// docs/sec is the load's throughput, p99-ns the reader's tail — what it
// waits for the write lock — and lock-holds/op the write-lock holds one load
// takes (one per slice of at most maxBatch chunks).
func BenchmarkBulkLoad(b *testing.B) {
	const n = 1000
	vecs := benchVecPool(2*n, 64, 13)
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = benchSegDoc(i, vecs)
		docs[i].Vectors["titleVector"] = vecs[n+i]
	}
	var lat []int64
	holds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := NewSegmented(Config{}, SegmentConfig{})
		stop := make(chan struct{})
		done := make(chan []int64)
		go func() {
			var l []int64
			for {
				select {
				case <-stop:
					done <- l
					return
				default:
				}
				t0 := time.Now()
				seg.SearchText("bloccare la carta di credito", 10, TextOptions{})
				l = append(l, int64(time.Since(t0)))
			}
		}()
		if err := seg.AddBulk(docs); err != nil {
			b.Fatal(err)
		}
		close(stop)
		lat = append(lat, <-done...)
		holds += seg.mem.writeHolds
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "docs/sec")
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	b.ReportMetric(float64(holds)/float64(b.N), "lock-holds/op")
}
