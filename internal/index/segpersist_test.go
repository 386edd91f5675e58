package index

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uniask/internal/vector"
)

// segStore builds a segmented store with sealed segments, a live memtable
// and a tombstone — every container feature a snapshot must carry.
func segStore(t testing.TB) *Segmented {
	t.Helper()
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	if err := seg.AddBulk(segCorpus(20)); err != nil {
		t.Fatal(err)
	}
	if !seg.Delete("s004#0") {
		t.Fatal("delete failed")
	}
	return seg
}

func TestSegmentedPersistRoundTrip(t *testing.T) {
	seg := segStore(t)
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSegmented(&buf, Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	if err != nil {
		t.Fatal(err)
	}

	if restored.Len() != seg.Len() || restored.LiveLen() != seg.LiveLen() || restored.Tombstones() != seg.Tombstones() {
		t.Fatalf("restored %d/%d/%d, want %d/%d/%d",
			restored.Len(), restored.LiveLen(), restored.Tombstones(),
			seg.Len(), seg.LiveLen(), seg.Tombstones())
	}
	if a, b := seg.SegmentStats(), restored.SegmentStats(); a.Segments != b.Segments || a.MemtableDocs != b.MemtableDocs {
		t.Fatalf("topology changed across save/load: %+v vs %+v", a, b)
	}
	if restored.StatsKey() != seg.StatsKey() {
		t.Fatalf("stats key changed across save/load: %d, want %d", restored.StatsKey(), seg.StatsKey())
	}
	for _, q := range segQueries {
		a := seg.SearchText(q, 15, TextOptions{})
		b := restored.SearchText(q, 15, TextOptions{})
		if len(a) != len(b) {
			t.Fatalf("%q: %d hits restored, want %d", q, len(b), len(a))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Fatalf("%q: restored hit %d = {%s %v}, want {%s %v}",
					q, i, b[i].ID, b[i].Score, a[i].ID, a[i].Score)
			}
		}
	}
	// The restored store must keep working: accept writes, seal, publish.
	if err := restored.Add(Document{ID: "new#0", ParentID: "new", Fields: map[string]string{"title": "nuovo documento"}}); err != nil {
		t.Fatal(err)
	}
	before := restored.StatsKey()
	restored.Publish()
	restored.WaitCompaction()
	if restored.StatsKey() == before {
		t.Fatal("restored store did not rotate on publish")
	}
}

// TestSegmentedPersistQuantizedVectorRoundTrip pins the quantized ANN path
// across the segmented container: the int8 arena travels inside each
// part's HNSW stream, so a restored store must reproduce vector rankings
// (ids, scores, order) exactly — sealed segments, live memtable and
// tombstones included — without requantizing or rebuilding any graph.
func TestSegmentedPersistQuantizedVectorRoundTrip(t *testing.T) {
	seg := segStore(t)
	rng := rand.New(rand.NewSource(29))
	queries := make([]vector.Vector, 10)
	for i := range queries {
		q := make(vector.Vector, 16)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		queries[i] = q
	}
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSegmented(&buf, Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	if err != nil {
		t.Fatal(err)
	}
	filters := [][]Filter{nil, {{Field: "domain", Value: "pagamenti"}}}
	for qi, q := range queries {
		for fi, f := range filters {
			a := seg.SearchVector("contentVector", q, 10, f)
			b := restored.SearchVector("contentVector", q, 10, f)
			if len(a) != len(b) {
				t.Fatalf("query %d filter %d: %d hits restored, want %d", qi, fi, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("query %d filter %d rank %d: restored %+v, want %+v", qi, fi, i, b[i], a[i])
				}
			}
		}
	}
}

// TestSegmentedPersistLegacyMigration loads a snapshot written by the plain
// Index.Save into a segmented store: the whole index is adopted as one
// sealed segment, preserving documents, tombstones and rankings.
func TestSegmentedPersistLegacyMigration(t *testing.T) {
	ix, _ := newTestIndex(t)
	ix.Delete("d2#0")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	seg, err := ReadSegmented(&buf, Config{}, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != ix.Len() || seg.LiveLen() != ix.LiveLen() || seg.Tombstones() != ix.Tombstones() {
		t.Fatalf("migrated %d/%d/%d, want %d/%d/%d",
			seg.Len(), seg.LiveLen(), seg.Tombstones(), ix.Len(), ix.LiveLen(), ix.Tombstones())
	}
	if st := seg.SegmentStats(); st.Segments != 1 || st.MemtableDocs != 0 {
		t.Fatalf("migration should adopt one sealed segment: %+v", st)
	}
	q := "bloccare la carta di credito"
	a := ix.SearchText(q, 10, TextOptions{})
	b := seg.SearchText(q, 10, TextOptions{})
	if len(a) != len(b) {
		t.Fatalf("%d hits after migration, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			t.Fatalf("migrated hit %d = {%s %v}, want {%s %v}", i, b[i].ID, b[i].Score, a[i].ID, a[i].Score)
		}
	}
	// The migrated store keeps the snapshot's schema for future memtables.
	if err := seg.Add(Document{ID: "post#0", ParentID: "post", Fields: map[string]string{"title": "dopo la migrazione"}}); err != nil {
		t.Fatal(err)
	}
	if hits := seg.SearchText("dopo la migrazione", 5, TextOptions{}); len(hits) == 0 || hits[0].ID != "post#0" {
		t.Fatalf("post-migration write not searchable: %v", hits)
	}
}

// TestSegmentedPersistPreEpochRemovalFixture loads a container written by
// segStore at the last commit whose manifest still carried the mutation
// epoch (testdata/segmented_pr13.snap): gob must skip the field the manifest
// no longer declares, and the restored store must equal a fresh segStore.
func TestSegmentedPersistPreEpochRemovalFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "segmented_pr13.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := ReadSegmented(f, Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := segStore(t)
	a, b := want.SegmentStats(), restored.SegmentStats()
	a.Seals, a.ChunksSealed = 0, 0 // process counters, not part of the container
	if a != b {
		t.Fatalf("fixture restored as %+v, want %+v", b, a)
	}
	assertTextParity(t, "fixture", want, restored)
	assertVectorParity(t, "fixture", want, restored, segQueryVec())
}

// TestSegmentedReadRejectsWrongContainer pins the wrong-container refusals
// of Read and ReadSegmented: the sentinel must survive errors.Is for
// programmatic branching, and the message must name the source (the file
// path when one is available, "stream" otherwise) and the detected format so
// the operator reading the log knows which file went to the wrong loader.
func TestSegmentedReadRejectsWrongContainer(t *testing.T) {
	seg := segStore(t)
	var segStream bytes.Buffer
	if err := seg.Save(&segStream); err != nil {
		t.Fatal(err)
	}
	shardedStream := []byte(ShardedSnapshotMagic + "garbage")

	// A file-backed source must be named by path in the error.
	shardedPath := filepath.Join(t.TempDir(), "cluster.snap")
	if err := os.WriteFile(shardedPath, shardedStream, 0o644); err != nil {
		t.Fatal(err)
	}
	segmentedPath := filepath.Join(t.TempDir(), "store.snap")
	if err := os.WriteFile(segmentedPath, segStream.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	openFile := func(path string) io.Reader {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	tests := []struct {
		name     string
		read     func(io.Reader) error
		src      io.Reader
		sentinel error
		wantName string
		wantKind string
	}{
		{
			name:     "Read refuses a sharded stream",
			read:     func(r io.Reader) error { _, err := Read(r, Config{}); return err },
			src:      bytes.NewReader(shardedStream),
			sentinel: ErrShardedSnapshot,
			wantName: "stream",
			wantKind: "sharded snapshot",
		},
		{
			name:     "Read refuses a segmented stream",
			read:     func(r io.Reader) error { _, err := Read(r, Config{}); return err },
			src:      bytes.NewReader(segStream.Bytes()),
			sentinel: ErrSegmentedSnapshot,
			wantName: "stream",
			wantKind: "segmented snapshot",
		},
		{
			name:     "Read refuses a sharded file by path",
			read:     func(r io.Reader) error { _, err := Read(r, Config{}); return err },
			src:      openFile(shardedPath),
			sentinel: ErrShardedSnapshot,
			wantName: shardedPath,
			wantKind: "sharded snapshot",
		},
		{
			name:     "Read refuses a segmented file by path",
			read:     func(r io.Reader) error { _, err := Read(r, Config{}); return err },
			src:      openFile(segmentedPath),
			sentinel: ErrSegmentedSnapshot,
			wantName: segmentedPath,
			wantKind: "segmented snapshot",
		},
		{
			name:     "ReadSegmented refuses a sharded stream",
			read:     func(r io.Reader) error { _, err := ReadSegmented(r, Config{}, SegmentConfig{}); return err },
			src:      bytes.NewReader(shardedStream),
			sentinel: ErrShardedSnapshot,
			wantName: "stream",
			wantKind: "sharded snapshot",
		},
		{
			name:     "ReadSegmented refuses a sharded file by path",
			read:     func(r io.Reader) error { _, err := ReadSegmented(r, Config{}, SegmentConfig{}); return err },
			src:      openFile(shardedPath),
			sentinel: ErrShardedSnapshot,
			wantName: shardedPath,
			wantKind: "sharded snapshot",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.read(tc.src)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, tc.sentinel)
			}
			if !strings.Contains(err.Error(), tc.wantName) {
				t.Errorf("error %q does not name the source %q", err, tc.wantName)
			}
			if !strings.Contains(err.Error(), "detected a "+tc.wantKind) {
				t.Errorf("error %q does not name the detected format %q", err, tc.wantKind)
			}
		})
	}
}

// TestSegmentedPersistTruncated verifies every truncation point of a valid
// container comes back as an error — never a panic, never a silent partial
// load.
func TestSegmentedPersistTruncated(t *testing.T) {
	seg := segStore(t)
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{len(SegmentedSnapshotMagic) + 3, len(SegmentedSnapshotMagic) + 9, len(full) / 2, len(full) - 1} {
		if n >= len(full) {
			continue
		}
		if _, err := ReadSegmented(bytes.NewReader(full[:n]), Config{}, SegmentConfig{}); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
}

// FuzzSegmentedManifest fuzzes the container decode path with arbitrary
// bytes after the magic: corrupt manifests, hostile section lengths and
// truncated segment streams must all error out without panicking or
// allocating unboundedly. Wired into `make fuzz-short`.
func FuzzSegmentedManifest(f *testing.F) {
	// Seed with a valid container, a truncation of it, and hand-built junk.
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 2, CompactionFanIn: -1})
	if err := seg.AddBulk(segCorpus(5)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte(SegmentedSnapshotMagic))
	f.Add([]byte(SegmentedSnapshotMagic + "\x00\x00\x00\x00\x00\x00\x00\x08garbage!"))
	f.Add([]byte(SegmentedSnapshotMagic + "\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("not a container at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSegmented(bytes.NewReader(data), Config{}, SegmentConfig{})
		if err != nil {
			return
		}
		// A stream that decodes must yield a usable store.
		s.LiveLen()
		s.SearchText("conto", 5, TextOptions{})
	})
}
