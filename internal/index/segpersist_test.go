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

// TestSegmentedPersistHNSWRoundTrip pins the HNSW path across
// the segmented container: the float32 arena and the adjacency travel
// inside each part's HNSW stream, so a restored store must reproduce
// vector rankings (ids, scores, order) exactly — sealed segments, live
// memtable and tombstones included — without rebuilding any graph.
func TestSegmentedPersistHNSWRoundTrip(t *testing.T) {
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

// TestSegmentedPersistPreviousReleaseFixture loads a container the
// previous release wrote (testdata/segmented_354f2dc.snap, generated at
// commit 354f2dc by saving segStore(t) to the file; its graphs still carry
// the int8 arena copy that release kept): the restored store must equal a
// fresh segStore. A change to the container format must keep this loading,
// and regenerates the fixture from its parent commit.
func TestSegmentedPersistPreviousReleaseFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "segmented_354f2dc.snap"))
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

// TestSegmentedReadRejectsWrongContainer pins the wrong-container refusal
// of ReadSegmented: the sentinel must survive errors.Is for
// programmatic branching, and the message must name the source (the file
// path when one is available, "stream" otherwise) and the detected format so
// the operator reading the log knows which file went to the wrong loader.
func TestSegmentedReadRejectsWrongContainer(t *testing.T) {
	shardedStream := []byte(ShardedSnapshotMagic + "garbage")
	// A file-backed source must be named by path in the error.
	shardedPath := filepath.Join(t.TempDir(), "cluster.snap")
	if err := os.WriteFile(shardedPath, shardedStream, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(shardedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	tests := []struct {
		name     string
		src      io.Reader
		wantName string
	}{
		{name: "ReadSegmented refuses a sharded stream", src: bytes.NewReader(shardedStream), wantName: "stream"},
		{name: "ReadSegmented refuses a sharded file by path", src: f, wantName: shardedPath},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSegmented(tc.src, Config{}, SegmentConfig{})
			if !errors.Is(err, ErrShardedSnapshot) {
				t.Fatalf("err = %v, want errors.Is(%v)", err, ErrShardedSnapshot)
			}
			if !strings.Contains(err.Error(), tc.wantName) {
				t.Errorf("error %q does not name the source %q", err, tc.wantName)
			}
			if !strings.Contains(err.Error(), "detected a sharded snapshot") {
				t.Errorf("error %q does not name the detected format", err)
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
