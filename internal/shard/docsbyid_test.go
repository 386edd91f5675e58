package shard_test

// The batched document read behind result materialization: DocsByID must be
// a transparent batching of DocByID on every store shape, and one query
// must cost at most one fetch per shard.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/search"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// fetchDoc is doc with embeddings: the content vector is what the fetch
// exists to carry into reranking, so parity must cover it.
func fetchDoc(id string) index.Document {
	d := doc(id, id[:len(id)-2], "Nota "+id, "Testo operativo della nota "+id+".")
	vec := make(vector.Vector, 8)
	for i := range vec {
		vec[i] = float32((len(id)+int(id[len(id)-3])+i)%13) / 13
	}
	d.Vectors = map[string]vector.Vector{"titleVector": vec, "contentVector": vec}
	return d
}

// TestShardParityDocsByID: on every store shape DocsByID(ids) equals the
// loop of DocByID element for element — and every shape agrees with the
// monolithic index — over a list holding duplicates, unknown ids, tombstoned
// ids, ids still in a live memtable and ids spread so unevenly that some
// shards own none, before and after full compaction.
func TestShardParityDocsByID(t *testing.T) {
	segCfg := index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2}
	type store struct {
		name string
		repo index.Repository
	}
	stores := []store{
		{"monolithic", index.New(exhaustiveConfig())},
		{"segmented", index.NewSegmented(exhaustiveConfig(), segCfg)},
	}
	for _, n := range []int{1, 2, 4, 8} {
		stores = append(stores, store{fmt.Sprintf("shards=%d", n),
			shard.New(shard.Config{Shards: n, Index: exhaustiveConfig(), Segment: segCfg})})
	}
	remoteFacade := shard.NewWithBackends(shard.Config{Index: exhaustiveConfig()},
		remoteCluster(t, 3, 4, 2, exhaustiveConfig(), segCfg))
	t.Cleanup(func() { remoteFacade.Close() })
	stores = append(stores, store{"remote shards=4 rf=2", remoteFacade})

	// The asked-for ids all hash to residues 0 and 1 mod 8, three to one:
	// at 4 and 8 shards most shards own none of them, at 2 the split is
	// lopsided.
	probe := shard.New(shard.Config{Shards: 8})
	var heavy, light []string
	var corpus []index.Document
	for i := 0; len(corpus) < 60; i++ {
		id := fmt.Sprintf("kb%05d#0", i)
		switch r := probe.ShardFor(id); {
		case r == 0 && len(heavy) < 4:
			heavy = append(heavy, id)
		case r == 1 && len(light) < 2:
			light = append(light, id)
		}
		corpus = append(corpus, fetchDoc(id))
	}
	if len(heavy) < 4 || len(light) < 2 {
		t.Fatalf("fixture found only %d+%d ids on residues 0 and 1", len(heavy), len(light))
	}
	memtableID := "kb90000#0" // added last, never published in the live phase
	ids := []string{
		heavy[0], heavy[1], light[0], heavy[0], // a duplicate
		"nope#0",           // never indexed
		heavy[2],           // tombstoned by Delete below
		light[1], heavy[3], // light[1] tombstoned by DeleteParent below
		memtableID, heavy[1],
	}

	check := func(t *testing.T, phase string, want *string, repo index.Repository) {
		t.Helper()
		batched, down := repo.DocsByID(context.Background(), ids)
		if down != 0 {
			t.Fatalf("%s: %d shards reported down on a healthy store", phase, down)
		}
		looped := make([]index.Document, len(ids))
		for i, id := range ids {
			looped[i], _ = repo.DocByID(id)
		}
		got := fmt.Sprintf("%#v", batched)
		if loop := fmt.Sprintf("%#v", looped); got != loop {
			t.Fatalf("%s: DocsByID diverged from the DocByID loop\nbatched: %s\nlooped:  %s", phase, got, loop)
		}
		if *want == "" {
			*want = got
		} else if got != *want {
			t.Fatalf("%s: DocsByID diverged from the monolithic index\nmono: %s\ngot:  %s", phase, *want, got)
		}
		for i, id := range ids {
			found := batched[i].ID != ""
			if dead := id == "nope#0" || id == heavy[2] || id == light[1]; found == dead {
				t.Fatalf("%s: id %s found=%v", phase, id, found)
			}
		}
	}

	var wantLive, wantCompacted string
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			repo := st.repo
			if err := repo.AddBulk(corpus); err != nil {
				t.Fatal(err)
			}
			if !repo.Delete(heavy[2]) {
				t.Fatalf("Delete(%s) missed", heavy[2])
			}
			if n := repo.DeleteParent(light[1][:len(light[1])-2]); n != 1 {
				t.Fatalf("DeleteParent removed %d chunks, want 1", n)
			}
			if err := repo.Add(fetchDoc(memtableID)); err != nil {
				t.Fatal(err)
			}
			check(t, "live", &wantLive, repo)

			if p, ok := repo.(index.Publisher); ok {
				p.Publish()
			}
			if w, ok := repo.(interface{ WaitCompaction() }); ok {
				w.WaitCompaction()
			}
			check(t, "compacted", &wantCompacted, repo)
		})
	}
	if wantLive != wantCompacted {
		t.Fatalf("compaction changed what DocsByID returns\nlive:      %s\ncompacted: %s", wantLive, wantCompacted)
	}
}

// countingBackend counts the document reads one shard receives and keeps
// the ids of the batched ones.
type countingBackend struct {
	shard.Backend

	mu      sync.Mutex
	single  int
	batches [][]string
}

func (c *countingBackend) DocByID(id string) (index.Document, bool) {
	c.mu.Lock()
	c.single++
	c.mu.Unlock()
	return c.Backend.DocByID(id)
}

func (c *countingBackend) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	c.mu.Lock()
	c.batches = append(c.batches, ids)
	c.mu.Unlock()
	return c.Backend.DocsByID(ctx, ids)
}

// fetchRPCs reports the document-read calls the shard has received.
func (c *countingBackend) fetchRPCs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.single + len(c.batches)
}

// countedRemoteSearcher indexes the parity corpus into a 4-shard remote
// facade at replication 2 whose backends count their document reads.
func countedRemoteSearcher(tb testing.TB) (*search.Searcher, *shard.Sharded, []*countingBackend, []string) {
	tb.Helper()
	const seed = 7
	corpus := kb.Generate(kb.GenConfig{Docs: parityCorpusDocs, Seed: seed})
	backends := remoteCluster(tb, 4, 4, 2, exhaustiveConfig(), index.SegmentConfig{})
	counters := make([]*countingBackend, len(backends))
	for i, b := range backends {
		counters[i] = &countingBackend{Backend: b}
		backends[i] = counters[i]
	}
	facade := shard.NewWithBackends(shard.Config{Index: exhaustiveConfig()}, backends)
	tb.Cleanup(func() { facade.Close() })
	s := buildSearcher(tb, facade, extractCorpus(tb, corpus),
		embedding.NewSynth(64, corpus.Lexicon()), llm.NewSim(llm.DefaultBehavior()))
	facade.Publish()
	facade.WaitCompaction()
	queries := parityQueries(corpus, seed)
	return s, facade, counters, queries[:len(queries)-1] // drop the degenerate empty query
}

// TestFinalizeRPCBudget is the regression guard on the remote path's worst
// ledger line: one cold search with the default options materializes its
// results with at most one batched read per shard — never one RPC per hit —
// and every shard is asked only for ids it owns.
func TestFinalizeRPCBudget(t *testing.T) {
	s, facade, counters, queries := countedRemoteSearcher(t)
	res, err := s.Search(context.Background(), queries[0], search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < facade.NumShards() {
		t.Fatalf("fixture query returned only %d results", len(res))
	}
	fetched := 0
	for i, c := range counters {
		if c.single != 0 {
			t.Errorf("shard %d served %d single-id DocByID reads, want 0", i, c.single)
		}
		if len(c.batches) > 1 {
			t.Errorf("shard %d served %d DocsByID reads for one query, want at most 1", i, len(c.batches))
		}
		for _, batch := range c.batches {
			for _, id := range batch {
				fetched++
				if owner := facade.ShardFor(id); owner != i {
					t.Errorf("shard %d was asked for %s, which shard %d owns", i, id, owner)
				}
			}
		}
	}
	if fetched != len(res) {
		t.Errorf("fetched %d documents for %d results", fetched, len(res))
	}
}

// BenchmarkFinalizeRemote measures one uncached default-options search over
// the 4-shard remote facade and reports rpcs/op: the document-read calls
// (batched and single-id alike) the shard backends received per search.
func BenchmarkFinalizeRemote(b *testing.B) {
	s, _, counters, queries := countedRemoteSearcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(context.Background(), queries[i%len(queries)], search.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rpcs := 0
	for _, c := range counters {
		rpcs += c.fetchRPCs()
	}
	b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
}
