package index_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"hash"
	"io"
	"sort"
	"strconv"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/shard"
)

// Every path that puts a stored vector back into a graph — a compaction
// merge, Index.Compact and a shard-count migration — must rebuild the graph
// the first insert built: the same vector bits, links and levels. The
// digests below were computed on the release before vectors were served
// from the graphs' arenas, when those paths re-normalized the raw vectors
// documents still carried; a re-insert that normalizes the arena's unit
// vectors a second time moves some of their bits, and with them the graphs.

// reinsertStore ingests the seeded 300-page corpus (both vector fields, every
// chunk of a page sharing its title vector) into w through the real
// ingest path, then drops every tenth page, so a rebuild has tombstones to
// leave out.
func reinsertStore(t *testing.T, w index.Writer) {
	t.Helper()
	corpus := kb.Generate(kb.GenConfig{Docs: 300, Seed: 5})
	in := indexer.New(w, embedding.NewSynth(0, corpus.Lexicon()), llm.NewSim(llm.DefaultBehavior()), indexer.Config{})
	var pages ingest.StaticSource
	for _, d := range corpus.Docs {
		pages = append(pages, ingest.Page{ID: d.ID, HTML: d.HTML})
	}
	if _, err := in.Index(context.Background(), (&ingest.Ingester{Source: pages}).Changes()); err != nil {
		t.Fatal(err)
	}
	for i, d := range corpus.Docs {
		if i%10 == 3 {
			w.DeleteParent(d.ID)
		}
	}
}

// snapshotGraphDigest is the SHA-256 of every graph section of the snapshot
// save writes, in section order and field-name order, over the decoded
// arenas (see TestIndexSnapshotPinned for why not the gob bytes). It reads
// a sharded container, a segmented container or a bare index section.
func snapshotGraphDigest(t *testing.T, save func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	digestSection(t, d, "", &buf)
	return hex.EncodeToString(d.Sum(nil))
}

func digestSection(t *testing.T, d hash.Hash, path string, r io.Reader) {
	t.Helper()
	c := index.OpenContainer(r)
	// A sharded manifest counts its shard sections; a segmented one counts
	// its sealed segments, and the memtable's section trails them.
	for _, kind := range []struct {
		magic string
		extra int
	}{{index.ShardedSnapshotMagic, 0}, {index.SegmentedSnapshotMagic, 1}} {
		if !c.Holds(kind.magic) {
			continue
		}
		var m struct{ Version, Shards, Segments int }
		sections := func() int { return m.Shards + m.Segments + kind.extra }
		header := func() (int, int) { return m.Version, sections() }
		if err := c.ReadManifest(kind.magic, 1, &m, header); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sections(); i++ {
			sec, err := c.Section()
			if err != nil {
				t.Fatal(err)
			}
			digestSection(t, d, path+"/"+strconv.Itoa(i), sec)
		}
		return
	}
	var snap struct{ Vectors map[string][]byte }
	if err := gob.NewDecoder(c).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(snap.Vectors))
	for name := range snap.Vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var g hnswArena
		if err := gob.NewDecoder(bytes.NewReader(snap.Vectors[name])).Decode(&g); err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{
			[]byte(path + "/" + name), int64(g.Version), int64(g.Cfg.M), int64(g.Cfg.EfConstruction), int64(g.Cfg.EfSearch),
			g.Cfg.Seed, int64(g.Dim), g.Entry, int64(g.MaxLvl),
			g.IDs, g.Levels, g.Vecs, g.Links0, g.Cnt0, g.UpOff, g.UpNbrs, g.UpCnt,
		} {
			if err := binary.Write(d, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// reinsertSegments keeps segments small and compaction manual, so the pins
// below cover many seals and one merge of all of them.
var reinsertSegments = index.SegmentConfig{MemtableMaxDocs: 128, CompactionFanIn: -1}

// TestCompactAllGraphsPinned: forced seals, then one merge of every sealed
// segment.
func TestCompactAllGraphsPinned(t *testing.T) {
	const want = "428a00ce9daaad9b0768a5b02e86d7bb2830be371d5f4ac99f5f179d68c85863"
	s := index.NewSegmented(index.Config{Schema: indexer.Schema()}, reinsertSegments)
	reinsertStore(t, s)
	s.Publish()
	if err := s.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := snapshotGraphDigest(t, s.Save); got != want {
		t.Fatalf("graphs after CompactAll: digest %s, want %s", got, want)
	}
}

// TestIndexCompactGraphsPinned: Index.Compact rebuilds the live chunks into
// a new index.
func TestIndexCompactGraphsPinned(t *testing.T) {
	const want = "a05a94568c1ac6bb392805bda663e4cf051c26b0e485c80b2af515e91e652233"
	ix := index.New(index.Config{Schema: indexer.Schema()})
	reinsertStore(t, ix)
	out, err := ix.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotGraphDigest(t, out.Save); got != want {
		t.Fatalf("graphs after Index.Compact: digest %s, want %s", got, want)
	}
}

// TestShardMigrationGraphsPinned: a single store's snapshot loaded into a
// 4-shard facade, every live chunk re-routed and re-inserted.
func TestShardMigrationGraphsPinned(t *testing.T) {
	const want = "49f9c8954a1ea197274ecbe1c0f81e37b512794f181cdf7631387222c129cc15"
	cfg := index.Config{Schema: indexer.Schema()}
	s := index.NewSegmented(cfg, reinsertSegments)
	reinsertStore(t, s)
	s.Publish()
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	sh, err := shard.Load(&snap, shard.Config{Shards: 4, Index: cfg, Segment: reinsertSegments})
	if err != nil {
		t.Fatal(err)
	}
	sh.Publish()
	if got := snapshotGraphDigest(t, sh.Save); got != want {
		t.Fatalf("graphs after the 1 → 4 shard migration: digest %s, want %s", got, want)
	}
}
