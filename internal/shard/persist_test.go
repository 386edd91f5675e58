package shard_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// vecConfig gives every fixture the exhaustive vector backend so search
// parity across save/load is exact, and a titleVector/contentVector schema.
func vecConfig() index.Config {
	return index.Config{
		VectorIndex: func(string) vector.Index { return vector.NewExhaustive() },
	}
}

// fillVec populates a repository with chunks carrying text and vectors.
func fillVec(t testing.TB, w index.Writer, emb *embedding.Synth, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("titolo procedura %d", i)
		content := fmt.Sprintf("contenuto della carta numero %d con istruzioni", i)
		err := w.Add(index.Document{
			ID:       fmt.Sprintf("p%03d#%d", i/2, i%2),
			ParentID: fmt.Sprintf("p%03d", i/2),
			Fields:   map[string]string{"title": title, "content": content},
			Vectors: map[string]vector.Vector{
				"titleVector":   emb.Embed(title),
				"contentVector": emb.Embed(content),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// searchFingerprint captures a text and a vector ranking for parity checks.
// It compares ids, scores and order.
func searchFingerprint(q index.Queryable, emb *embedding.Synth) string {
	var b strings.Builder
	for _, h := range q.SearchText("contenuto carta istruzioni", 10, index.TextOptions{}) {
		fmt.Fprintf(&b, "%s=%v;", h.ID, h.Score)
	}
	b.WriteString("|")
	for _, h := range q.SearchVector("contentVector", emb.Embed("carta istruzioni"), 10, nil) {
		fmt.Fprintf(&b, "%s=%v;", h.ID, h.Score)
	}
	return b.String()
}

func TestShardedSnapshotRoundTripSameCount(t *testing.T) {
	emb := embedding.NewSynth(32, nil)
	cfg := shard.Config{Shards: 4, Index: vecConfig()}
	s := shard.New(cfg)
	fillVec(t, s, emb, 30)
	s.Delete("p002#0")
	want := searchFingerprint(s, emb)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 4 {
		t.Fatalf("loaded %d shards, want 4", loaded.NumShards())
	}
	if loaded.LiveLen() != s.LiveLen() || loaded.Tombstones() != s.Tombstones() {
		t.Fatalf("loaded live=%d tombstones=%d, want live=%d tombstones=%d",
			loaded.LiveLen(), loaded.Tombstones(), s.LiveLen(), s.Tombstones())
	}
	if got := searchFingerprint(loaded, emb); got != want {
		t.Fatalf("round-tripped facade ranks differently\nwant: %s\ngot:  %s", want, got)
	}
}

// TestSingleStoreSnapshotMigratesIntoFacade: the segmented container a
// single-store engine saves must load into a ShardCount > 1 facade by
// re-routing every live document (the 1 → N migration).
func TestSingleStoreSnapshotMigratesIntoFacade(t *testing.T) {
	emb := embedding.NewSynth(32, nil)
	store := index.NewSegmented(vecConfig(), index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	fillVec(t, store, emb, 30)
	store.Delete("p004#1")

	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf, shard.Config{Shards: 4, Index: vecConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstones are not migrated — only live documents travel.
	if loaded.LiveLen() != store.LiveLen() || loaded.Tombstones() != 0 {
		t.Fatalf("migrated live=%d tombstones=%d, want live=%d tombstones=0",
			loaded.LiveLen(), loaded.Tombstones(), store.LiveLen())
	}
	// The parity baseline is one unsealed store rebuilt from the live docs:
	// migration drops tombstones, which legitimately shifts BM25 corpus
	// statistics relative to the tombstone-carrying source. The docs'
	// vectors are arena views, re-added verbatim as the migration does.
	ref := index.NewSegmented(vecConfig(), index.SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: -1})
	if _, err := ref.AddStored(store.LiveDocs()); err != nil {
		t.Fatal(err)
	}
	if got, want := searchFingerprint(loaded, emb), searchFingerprint(ref, emb); got != want {
		t.Fatalf("migrated facade ranks differently from the compacted single-store source\nwant: %s\ngot:  %s", want, got)
	}
}

// TestMonolithicLoadRejectsShardedSnapshot is the other direction: a
// single-store index.ReadSegmented must refuse a sharded container with a
// descriptive error, not decode garbage.
func TestMonolithicLoadRejectsShardedSnapshot(t *testing.T) {
	s := shard.New(shard.Config{Shards: 2, Index: vecConfig()})
	emb := embedding.NewSynth(32, nil)
	fillVec(t, s, emb, 10)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := index.ReadSegmented(&buf, vecConfig(), index.SegmentConfig{})
	if !errors.Is(err, index.ErrShardedSnapshot) {
		t.Fatalf("index.ReadSegmented(sharded container) err = %v, want ErrShardedSnapshot", err)
	}
	if !strings.Contains(err.Error(), "sharded snapshot") {
		t.Fatalf("error %q does not describe the problem", err)
	}
}

// TestShardCountChangeMigrates loads a 2-shard container at 4 shards: every
// document is re-routed, counts are preserved, rankings stay identical.
func TestShardCountChangeMigrates(t *testing.T) {
	emb := embedding.NewSynth(32, nil)
	s := shard.New(shard.Config{Shards: 2, Index: vecConfig()})
	fillVec(t, s, emb, 30)
	want := searchFingerprint(s, emb)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf, shard.Config{Shards: 4, Index: vecConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 4 {
		t.Fatalf("loaded %d shards, want 4", loaded.NumShards())
	}
	if loaded.LiveLen() != s.LiveLen() {
		t.Fatalf("migrated live=%d, want %d", loaded.LiveLen(), s.LiveLen())
	}
	if got := searchFingerprint(loaded, emb); got != want {
		t.Fatalf("re-sharded facade ranks differently\nwant: %s\ngot:  %s", want, got)
	}
}

// TestTruncatedContainerErrors guards the framing: a container cut mid-way
// must surface an error, not a silently smaller index.
func TestTruncatedContainerErrors(t *testing.T) {
	s := shard.New(shard.Config{Shards: 2, Index: vecConfig()})
	emb := embedding.NewSynth(32, nil)
	fillVec(t, s, emb, 10)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-buf.Len()/3]
	if _, err := shard.Load(bytes.NewReader(cut), shard.Config{Shards: 2, Index: vecConfig()}); err == nil {
		t.Fatal("truncated container loaded without error")
	}
}

// fixtureConfig and fixtureFacade build the facade testdata/sharded_354f2dc.snap
// holds: two shards with sealed segments, live memtables and tombstones.
func fixtureConfig(shards int) shard.Config {
	return shard.Config{Shards: shards, Index: vecConfig(), Segment: index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1}}
}

func fixtureFacade(t testing.TB) (*shard.Sharded, *embedding.Synth) {
	t.Helper()
	emb := embedding.NewSynth(32, nil)
	s := shard.New(fixtureConfig(2))
	fillVec(t, s, emb, 40)
	s.Delete("p003#1")
	s.Delete("p011#0")
	return s, emb
}

// TestShardedPersistPreviousReleaseFixture loads a container the previous
// release wrote (testdata/sharded_354f2dc.snap, generated at commit 354f2dc
// by saving fixtureFacade(t) to the file; its graphs still carry the int8
// arena copy that release kept). At two shards it must equal a fresh
// fixtureFacade; at four it must migrate exactly as a fresh container does.
// A change to the container format must keep this loading, and regenerates
// the fixture from its parent commit.
func TestShardedPersistPreviousReleaseFixture(t *testing.T) {
	want, emb := fixtureFacade(t)
	load := func(r io.Reader, shards int) *shard.Sharded {
		t.Helper()
		s, err := shard.Load(r, fixtureConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fixture := func(shards int) *shard.Sharded {
		t.Helper()
		f, err := os.Open(filepath.Join("testdata", "sharded_354f2dc.snap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return load(f, shards)
	}

	got := fixture(2)
	a, b := want.SegmentStats(), got.SegmentStats()
	for i := range a {
		a[i].Seals, a[i].ChunksSealed = 0, 0 // process counters, not part of the container
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fixture restored as %+v, want %+v", b, a)
	}
	if g, w := searchFingerprint(got, emb), searchFingerprint(want, emb); g != w {
		t.Fatalf("fixture ranks differently from a fresh build\nwant: %s\ngot:  %s", w, g)
	}

	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if g, w := searchFingerprint(fixture(4), emb), searchFingerprint(load(&buf, 4), emb); g != w {
		t.Fatalf("fixture migrated to 4 shards ranks differently from a fresh container\nwant: %s\ngot:  %s", w, g)
	}
}

// TestOldSnapshotsRefused: input only a release older than the previous
// one wrote is refused with index.ErrUnsupportedSnapshot by whichever
// loader it reaches, and a file source is named by its path.
func TestOldSnapshotsRefused(t *testing.T) {
	// Local mirrors of the old layouts; gob matches fields by name.
	type shardManifest struct{ Version, Shards int }
	type segManifest struct{ Version, Segments int }
	type hnswV1Node struct {
		ID    int
		Vec   vector.Vector
		Level int
		Links [][]int32
	}
	type hnswV1 struct {
		Cfg   vector.HNSWConfig
		Nodes []hnswV1Node
		Dim   int
	}
	type indexSection struct {
		Schema  index.Schema
		Vectors map[string][]byte
	}

	emb := embedding.NewSynth(32, nil)
	monos := []*index.Index{index.New(vecConfig()), index.New(vecConfig())}
	for _, m := range monos {
		fillVec(t, m, emb, 6)
	}
	// A single-file snapshot: what Index.Save writes on its own.
	var single bytes.Buffer
	if err := monos[0].Save(&single); err != nil {
		t.Fatal(err)
	}
	// A sharded container whose sections are plain index snapshots.
	var plain bytes.Buffer
	if err := index.WriteContainer(&plain, index.ShardedSnapshotMagic, shardManifest{Version: 1, Shards: 2}, 2,
		func(i int, w io.Writer) error { return monos[i].Save(w) }); err != nil {
		t.Fatal(err)
	}
	// A segmented container whose memtable carries a per-node HNSW arena.
	var arena bytes.Buffer
	if err := gob.NewEncoder(&arena).Encode(hnswV1{
		Cfg:   vector.HNSWConfig{M: 16},
		Nodes: []hnswV1Node{{Vec: vector.Vector{1, 0}, Links: [][]int32{{}}}},
		Dim:   2,
	}); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := index.WriteContainer(&v1, index.SegmentedSnapshotMagic, segManifest{Version: 1}, 1, func(_ int, w io.Writer) error {
		return gob.NewEncoder(w).Encode(indexSection{Schema: index.DefaultSchema(), Vectors: map[string][]byte{"contentVector": arena.Bytes()}})
	}); err != nil {
		t.Fatal(err)
	}

	cfg := shard.Config{Shards: 2, Index: vecConfig()}
	readSegmented := func(r io.Reader) error { _, err := index.ReadSegmented(r, cfg.Index, cfg.Segment); return err }
	load := func(r io.Reader) error { _, err := shard.Load(r, cfg); return err }
	tests := []struct {
		name string
		data []byte
		load func(io.Reader) error
	}{
		{"single-file snapshot into a single store", single.Bytes(), readSegmented},
		{"single-file snapshot into a facade", single.Bytes(), load},
		{"sharded container with plain index sections", plain.Bytes(), load},
		{"hnsw v1 arena", v1.Bytes(), readSegmented},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.load(bytes.NewReader(tc.data)); !errors.Is(err, index.ErrUnsupportedSnapshot) {
				t.Fatalf("stream: err = %v, want ErrUnsupportedSnapshot", err)
			}
			path := filepath.Join(t.TempDir(), "old.snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			err = tc.load(f)
			if !errors.Is(err, index.ErrUnsupportedSnapshot) {
				t.Fatalf("file: err = %v, want ErrUnsupportedSnapshot", err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
		})
	}
}

// TestLoadRejectsCorruptShardCount: the manifest's shard count is bounded
// before anything is allocated by it, so a corrupt count is an error — not
// a makeslice panic or a terabyte allocation — and so is a count the
// sections do not back.
func TestLoadRejectsCorruptShardCount(t *testing.T) {
	type shardManifest struct{ Version, Shards int }
	store := index.NewSegmented(vecConfig(), index.SegmentConfig{})
	fillVec(t, store, embedding.NewSynth(32, nil), 4)
	for _, n := range []int{0, -1, 1 << 62, 3} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var buf bytes.Buffer
			if err := index.WriteContainer(&buf, index.ShardedSnapshotMagic, shardManifest{Version: 1, Shards: n}, 2,
				func(_ int, w io.Writer) error { return store.Save(w) }); err != nil {
				t.Fatal(err)
			}
			if _, err := shard.Load(&buf, shard.Config{Shards: 2, Index: vecConfig()}); err == nil {
				t.Fatalf("a manifest declaring %d shards over 2 sections loaded", n)
			}
		})
	}
}

// FuzzShardedSnapshot fuzzes shard.Load with arbitrary bytes: corrupt
// manifests, hostile section lengths and truncated shard sections must
// error without panicking or allocating unboundedly, and a stream that
// decodes must yield a usable facade. Wired into `make fuzz-short`.
func FuzzShardedSnapshot(f *testing.F) {
	// Small seeds keep minimizing an interesting input within the short run.
	s := shard.New(shard.Config{Shards: 2, Index: vecConfig(), Segment: index.SegmentConfig{MemtableMaxDocs: 1, CompactionFanIn: -1}})
	fillVec(f, s, embedding.NewSynth(2, nil), 4)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	var huge bytes.Buffer
	if err := index.WriteContainer(&huge, index.ShardedSnapshotMagic, struct{ Version, Shards int }{1, 1 << 62}, 0, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(huge.Bytes())

	cfg := shard.Config{Shards: 2, Index: vecConfig()}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := shard.Load(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		loaded.LiveLen()
		loaded.SearchText("contenuto carta", 5, index.TextOptions{})
	})
}
