package shard_test

// The acceptance criterion for the sharded facade: searching N shards
// returns byte-identical ranked results to the monolithic index — same ids,
// same scores, same order — for every retrieval variant the paper ablates
// (Tables 1-3), because BM25 scores with global corpus statistics and
// vector ties break on global arrival order.
//
// Both sides run the exhaustive exact k-NN backend: per-shard HNSW graphs
// are legitimately different graphs than one monolithic HNSW (approximate
// recall differs by construction), so graph-based parity would compare two
// approximations. Exhaustive search makes both sides exact and the
// comparison meaningful.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/rerank"
	"uniask/internal/search"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// parityCorpusDocs keeps the fixture big enough that per-shard rankings
// genuinely interleave at every shard count, small enough for -race runs.
const parityCorpusDocs = 120

// exhaustiveConfig is the shared per-index configuration of the parity
// fixtures: indexer schema, exact vector backend.
func exhaustiveConfig() index.Config {
	return index.Config{
		Schema:      indexer.Schema(),
		VectorIndex: func(string) vector.Index { return vector.NewExhaustive() },
	}
}

// extractCorpus runs the real ingestion pipeline over a generated corpus so
// the fixtures index exactly what production would.
func extractCorpus(t testing.TB, corpus *kb.Corpus) []ingest.Extracted {
	t.Helper()
	pages := make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	return (&ingest.Ingester{Source: pages}).Changes()
}

// buildSearcher indexes the extracted docs into repo and wraps it in the
// full retrieval stack.
func buildSearcher(t testing.TB, repo index.Repository, docs []ingest.Extracted, emb *embedding.Synth, client llm.Client) *search.Searcher {
	t.Helper()
	in := indexer.New(repo, emb, client, indexer.Config{})
	if _, err := in.Index(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	return &search.Searcher{
		Index:    repo,
		Embedder: emb,
		Reranker: rerank.New(),
		LLM:      client,
		Workers:  4,
	}
}

// parityQueries samples the Tables 1-3 evaluation query sets: expert
// natural-language questions and keyword-log queries.
func parityQueries(corpus *kb.Corpus, seed int64) []string {
	var out []string
	for _, q := range corpus.HumanDataset(12, seed+100).Queries {
		out = append(out, q.Text)
	}
	for _, q := range corpus.KeywordDataset(12, seed+200).Queries {
		out = append(out, q.Text)
	}
	out = append(out, "") // degenerate query
	return out
}

// parityVariants is every retrieval configuration the paper ablates:
// HSS (Table 1), the mode ablation (Table 2), the expansion and
// title-boost variants (Table 3).
func parityVariants() []struct {
	name string
	opts search.Options
} {
	return []struct {
		name string
		opts search.Options
	}{
		{"HSS", search.Options{}},
		{"TextOnly", search.Options{Mode: search.TextOnly, DisableSemanticRerank: true}},
		{"VectorOnly", search.Options{Mode: search.VectorOnly, DisableSemanticRerank: true}},
		{"QGA", search.Options{Expansion: search.QGA}},
		{"MQ1", search.Options{Expansion: search.MQ1}},
		{"MQ2", search.Options{Expansion: search.MQ2}},
		{"T5", search.Options{TitleBoost: 5}},
		{"T50", search.Options{TitleBoost: 50}},
		{"T500", search.Options{TitleBoost: 500}},
	}
}

// TestShardParitySegmentedLifecycle extends the parity criterion across the
// segmented store's whole lifecycle: shards run with a tiny memtable so the
// corpus shatters into many sealed segments plus live memtables, and the
// facade must still rank byte-identically to the monolithic index — first
// with unpublished writes and tombstones in place, then again after every
// shard has fully compacted (compared against the compacted monolithic
// index, which holds the same statistics once all tombstones are dropped).
func TestShardParitySegmentedLifecycle(t *testing.T) {
	const seed = 7
	corpus := kb.Generate(kb.GenConfig{Docs: parityCorpusDocs, Seed: seed})
	docs := extractCorpus(t, corpus)
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())
	queries := parityQueries(corpus, seed)
	variants := parityVariants()

	// Parents deleted mid-lifecycle, spread across the corpus.
	var victims []string
	for i := 0; i < len(corpus.Docs); i += 9 {
		victims = append(victims, corpus.Docs[i].ID)
	}

	monoIx := index.New(exhaustiveConfig())
	mono := buildSearcher(t, monoIx, docs, emb, client)
	for _, p := range victims {
		monoIx.DeleteParent(p)
	}
	type key struct{ variant, query int }
	wantLive := make(map[key]string)
	for vi, v := range variants {
		for qi, q := range queries {
			res, err := mono.Search(context.Background(), q, v.opts)
			if err != nil {
				t.Fatalf("monolithic %s %q: %v", v.name, q, err)
			}
			wantLive[key{vi, qi}] = fmt.Sprintf("%#v", res)
		}
	}

	monoLive := monoIx.LiveLen()

	// Sentinel documents covering every FNV residue mod 8 (and therefore
	// every shard at each tested count): added after the deletes, they leave
	// every shard's memtable non-empty so the final publication seals one
	// more segment per shard and the compactor's last merge reclaims every
	// tombstone deterministically.
	probe := shard.New(shard.Config{Shards: 8, Index: exhaustiveConfig()})
	sentinels := make([]index.Document, 0, 8)
	covered := make(map[int]bool)
	for i := 0; len(covered) < 8 && i < 1000; i++ {
		id := fmt.Sprintf("pad%03d#0", i)
		res := probe.ShardFor(id)
		if covered[res] {
			continue
		}
		covered[res] = true
		title := fmt.Sprintf("Nota operativa %d", i)
		content := fmt.Sprintf("Aggiornamento %d della nota operativa sul conto.", i)
		sentinels = append(sentinels, index.Document{
			ID: id, ParentID: fmt.Sprintf("pad%03d", i),
			Fields: map[string]string{"title": title, "content": content},
			Vectors: map[string]vector.Vector{
				"titleVector":   emb.Embed(title),
				"contentVector": emb.Embed(content),
			},
		})
	}
	if len(sentinels) != 8 {
		t.Fatalf("found %d sentinel residues, want 8", len(sentinels))
	}
	for _, d := range sentinels {
		if err := monoIx.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	compactedIx, err := monoIx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	compacted := &search.Searcher{Index: compactedIx, Embedder: emb, Reranker: rerank.New(), LLM: client, Workers: 4}
	wantCompacted := make(map[key]string)
	for vi, v := range variants {
		for qi, q := range queries {
			res, err := compacted.Search(context.Background(), q, v.opts)
			if err != nil {
				t.Fatalf("compacted monolithic %s %q: %v", v.name, q, err)
			}
			wantCompacted[key{vi, qi}] = fmt.Sprintf("%#v", res)
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			facade := shard.New(shard.Config{
				Shards: shards,
				Index:  exhaustiveConfig(),
				// Memtable of 8 shatters every shard into many segments;
				// fan-in 2 keeps the background compactor merging
				// equal-sized neighbours during the build.
				Segment: index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2},
			})
			s := buildSearcher(t, facade, docs, emb, client)
			// Quiesce the build-time compactor before deleting so both sides
			// hold exactly the same tombstones during the live phase.
			facade.WaitCompaction()
			for _, p := range victims {
				facade.DeleteParent(p)
			}
			if got := facade.LiveLen(); got != monoLive {
				t.Fatalf("facade holds %d live chunks, monolithic %d", got, monoLive)
			}
			sealed := 0
			for _, st := range facade.SegmentStats() {
				sealed += st.Segments
			}
			if sealed < shards {
				t.Fatalf("fixture produced only %d sealed segments across %d shards", sealed, shards)
			}
			for vi, v := range variants {
				for qi, q := range queries {
					res, err := s.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("live %s %q: %v", v.name, q, err)
					}
					if got := fmt.Sprintf("%#v", res); got != wantLive[key{vi, qi}] {
						t.Errorf("live %s %q: segmented ranking diverged from monolithic\nmono:  %s\nshard: %s",
							v.name, q, wantLive[key{vi, qi}], got)
					}
				}
			}

			// Publish the tombstoned state (the sentinels guarantee one
			// fresh seal per shard), let the policy settle, then fully
			// merge every shard to a single tombstone-free segment, as
			// Compact did on the monolithic side.
			for _, d := range sentinels {
				if err := facade.Add(d); err != nil {
					t.Fatal(err)
				}
			}
			facade.Publish()
			facade.WaitCompaction()
			compactAllLocal(t, facade)
			if got := facade.Tombstones(); got != 0 {
				t.Fatalf("full compaction left %d tombstones", got)
			}
			for vi, v := range variants {
				for qi, q := range queries {
					res, err := s.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("compacted %s %q: %v", v.name, q, err)
					}
					if got := fmt.Sprintf("%#v", res); got != wantCompacted[key{vi, qi}] {
						t.Errorf("compacted %s %q: segmented ranking diverged from compacted monolithic\nmono:  %s\nshard: %s",
							v.name, q, wantCompacted[key{vi, qi}], got)
					}
				}
			}
		})
	}
}

// TestShardParityMatchesMonolithic is the cross-check: one monolithic index
// and one facade per shard count, fed identically, must return identical
// []search.Result for every query of every variant.
func TestShardParityMatchesMonolithic(t *testing.T) {
	const seed = 7
	corpus := kb.Generate(kb.GenConfig{Docs: parityCorpusDocs, Seed: seed})
	docs := extractCorpus(t, corpus)
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())

	mono := buildSearcher(t, index.New(exhaustiveConfig()), docs, emb, client)
	queries := parityQueries(corpus, seed)
	variants := parityVariants()

	// Baselines once per (variant, query) on the monolithic index.
	type key struct{ variant, query int }
	want := make(map[key]string)
	for vi, v := range variants {
		for qi, q := range queries {
			res, err := mono.Search(context.Background(), q, v.opts)
			if err != nil {
				t.Fatalf("monolithic %s %q: %v", v.name, q, err)
			}
			want[key{vi, qi}] = fmt.Sprintf("%#v", res)
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			facade := shard.New(shard.Config{Shards: shards, Index: exhaustiveConfig()})
			s := buildSearcher(t, facade, docs, emb, client)
			if got := facade.LiveLen(); got != mono.Index.(*index.Index).LiveLen() {
				t.Fatalf("facade holds %d live chunks, monolithic %d", got, mono.Index.(*index.Index).LiveLen())
			}
			for vi, v := range variants {
				for qi, q := range queries {
					res, err := s.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("%s %q: %v", v.name, q, err)
					}
					if got := fmt.Sprintf("%#v", res); got != want[key{vi, qi}] {
						t.Errorf("%s %q: sharded ranking diverged from monolithic\nmono:  %s\nshard: %s",
							v.name, q, want[key{vi, qi}], got)
					}
				}
			}
		})
	}
}

// TestShardParityHNSWReplay extends the byte-parity harness to the
// HNSW vector path. Cross-topology parity (above) runs the exhaustive
// backend because per-shard HNSW graphs are legitimately different graphs;
// the HNSW guarantee is *replay* parity: a facade running the default
// HNSW must, after a save/load round trip of its sharded-segmented
// container, reproduce every vector ranking — ids, scores, order — exactly,
// at every shard count, with sealed segments, live memtables and
// tombstones all in play. That holds only if the arena and the adjacency
// survive the snapshot bit-for-bit (a rebuilt graph would walk different
// beams).
func TestShardParityHNSWReplay(t *testing.T) {
	emb := embedding.NewSynth(32, nil)
	domains := []string{"prodotti", "pagamenti", "errori"}
	queryTexts := []string{
		"carta istruzioni operative",
		"procedura per la verifica",
		"contenuto della carta numero 7",
	}
	fingerprint := func(q index.Queryable) string {
		var b strings.Builder
		for _, text := range queryTexts {
			qv := emb.Embed(text)
			for _, f := range [][]index.Filter{nil, {{Field: "domain", Value: "pagamenti"}}} {
				for _, h := range q.SearchVector("contentVector", qv, 12, f) {
					fmt.Fprintf(&b, "%s=%v;", h.ID, h.Score)
				}
				b.WriteString("|")
			}
		}
		return b.String()
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shard.Config{
				Shards:  shards,
				Segment: index.SegmentConfig{MemtableMaxDocs: 16, CompactionFanIn: -1},
			}
			s := shard.New(cfg)
			add := func(i int) {
				title := fmt.Sprintf("titolo procedura %d", i)
				content := fmt.Sprintf("contenuto della carta numero %d con istruzioni operative", i)
				err := s.Add(index.Document{
					ID:       fmt.Sprintf("q%03d#0", i),
					ParentID: fmt.Sprintf("q%03d", i),
					Fields:   map[string]string{"title": title, "content": content, "domain": domains[i%3]},
					Vectors:  map[string]vector.Vector{"contentVector": emb.Embed(content)},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 70; i++ {
				add(i)
			}
			s.Publish() // seal: the arena now lives in sealed segments
			for i := 70; i < 90; i++ {
				add(i) // and in live memtables
			}
			s.Delete("q004#0")
			s.DeleteParent("q010")

			want := fingerprint(s)
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := shard.Load(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(loaded); got != want {
				t.Fatalf("replayed HNSW rankings diverged\nwant: %s\ngot:  %s", want, got)
			}
		})
	}
}
