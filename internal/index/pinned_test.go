package index_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"sort"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
)

// hnswArena mirrors the stream vector.HNSW.Save writes; gob matches fields
// by name, so it decodes without the unexported snapshot type.
type hnswArena struct {
	Version int
	Cfg     struct {
		M, EfConstruction, EfSearch int
		Seed                        int64
	}
	Dim, MaxLvl                                     int
	Entry                                           int32
	IDs, Levels, Links0, Cnt0, UpOff, UpNbrs, UpCnt []int32
	Vecs                                            []float32
}

// TestIndexSnapshotPinned pins the graphs the index builds through the real
// ingest path: a seeded corpus is chunked, embedded into both vector fields
// (every chunk of a page shares its title vector, so distances tie) and
// added in order, and the SHA-256 of the graph sections of Index.Save must
// not move. The digest covers each section's decoded content in a fixed
// binary layout, in field-name order: gob's own bytes vary with map order
// and with the process-wide type numbers gob assigns on first use.
func TestIndexSnapshotPinned(t *testing.T) {
	const want = "273fef1e18c683dbf0c5d88084c72079a36ef102f7e812e886bb085d3b999ded"
	corpus := kb.Generate(kb.GenConfig{Docs: 300, Seed: 5})
	ix := index.New(index.Config{Schema: indexer.Schema()})
	in := indexer.New(ix, embedding.NewSynth(0, corpus.Lexicon()), llm.NewSim(llm.DefaultBehavior()), indexer.Config{})
	var pages ingest.StaticSource
	for _, d := range corpus.Docs {
		pages = append(pages, ingest.Page{ID: d.ID, HTML: d.HTML})
	}
	if _, err := in.Index(context.Background(), (&ingest.Ingester{Source: pages}).Changes()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Vectors map[string][]byte }
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(snap.Vectors))
	for name := range snap.Vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 2 {
		t.Fatalf("snapshot holds graphs for %v, want titleVector and contentVector", names)
	}
	d := sha256.New()
	for _, name := range names {
		var g hnswArena
		if err := gob.NewDecoder(bytes.NewReader(snap.Vectors[name])).Decode(&g); err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{
			[]byte(name), int64(g.Version), int64(g.Cfg.M), int64(g.Cfg.EfConstruction), int64(g.Cfg.EfSearch),
			g.Cfg.Seed, int64(g.Dim), g.Entry, int64(g.MaxLvl),
			g.IDs, g.Levels, g.Vecs, g.Links0, g.Cnt0, g.UpOff, g.UpNbrs, g.UpCnt,
		} {
			if err := binary.Write(d, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Fatalf("graph digest of %d chunks = %s, want %s", ix.Len(), got, want)
	}
}
