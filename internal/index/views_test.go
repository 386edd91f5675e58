package index

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"uniask/internal/vector"
)

// viewDocs draws n two-field chunks with raw (not unit-length) vectors;
// every third chunk shares its predecessor's title vector, as the chunks of
// one page do.
func viewDocs(n int) []Document {
	rng := rand.New(rand.NewSource(39))
	raw := func() vector.Vector {
		v := make(vector.Vector, 24)
		for j := range v {
			v[j] = float32(rng.NormFloat64()) * 3
		}
		return v
	}
	docs := make([]Document, n)
	for i := range docs {
		title := raw()
		if i%3 == 2 {
			title = docs[i-1].Vectors["titleVector"]
		}
		docs[i] = Document{
			ID:       fmt.Sprintf("v%04d#0", i),
			ParentID: fmt.Sprintf("v%04d", i),
			Fields:   map[string]string{"title": fmt.Sprintf("Pagina %d", i), "content": fmt.Sprintf("contenuto della pagina %d", i)},
			Vectors:  map[string]vector.Vector{"titleVector": title, "contentVector": raw()},
		}
	}
	return docs
}

// unitCopy is what an arena stores for raw vector v: v normalized once.
func unitCopy(v vector.Vector) vector.Vector {
	return vector.Normalize(slices.Clone(v))
}

// TestDocsByIDViewsAliasArena: every vector a read returns is a view of the
// vector index's arena — the same memory, capacity capped at its length, so
// an append cannot reach the next vector — and holds the raw vector
// normalized once. Checked across sealed segments, a merge's result and the
// memtable, on both vector index kinds.
func TestDocsByIDViewsAliasArena(t *testing.T) {
	for _, kind := range []struct {
		name string
		vx   func(string) vector.Index
	}{
		{"hnsw", nil},
		{"exact", func(string) vector.Index { return vector.NewExhaustive() }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			s := NewSegmented(Config{VectorIndex: kind.vx}, SegmentConfig{MemtableMaxDocs: 40, CompactionFanIn: -1})
			docs := viewDocs(150)
			if err := s.AddBulk(docs[:100]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompactOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.AddBulk(docs[100:]); err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(docs))
			for i, d := range docs {
				ids[i] = d.ID
			}
			got, _ := s.DocsByID(context.Background(), ids)
			parts := s.parts()
			for i, d := range got {
				part, ord := holder(t, parts, d.ID)
				for field, raw := range docs[i].Vectors {
					v := d.Vectors[field]
					arena := part.vecs[field].Vec(ord)
					if len(v) != len(raw) || &v[0] != &arena[0] {
						t.Fatalf("%s %s: not a view of its part's arena", d.ID, field)
					}
					if cap(v) != len(v) {
						t.Fatalf("%s %s: view capacity %d past its length %d", d.ID, field, cap(v), len(v))
					}
					if !slices.Equal(v, unitCopy(raw)) {
						t.Fatalf("%s %s: view holds %v, want the raw vector normalized once", d.ID, field, v)
					}
				}
			}
		})
	}
}

// holder returns the part holding id live and its ordinal there.
func holder(t *testing.T, parts []*Index, id string) (*Index, int) {
	t.Helper()
	for _, p := range parts {
		p.mu.RLock()
		ord, ok := p.byID[id]
		p.mu.RUnlock()
		if ok {
			return p, int(ord)
		}
	}
	t.Fatalf("%s is in no part", id)
	return nil, 0
}

// TestConcurrentFeedsLeaveCallerDocs feeds one []Document to two stores at
// once, as the replicas of a shard are fed, and checks that the callers'
// maps and vectors are exactly what they were: a store copies each vector
// into its arena and normalizes its own copy. Run it with -race.
func TestConcurrentFeedsLeaveCallerDocs(t *testing.T) {
	docs := viewDocs(300)
	before := make([]Document, len(docs))
	for i, d := range docs {
		vecs := make(map[string]vector.Vector, len(d.Vectors))
		for f, v := range d.Vectors {
			vecs[f] = slices.Clone(v)
		}
		before[i] = Document{ID: d.ID, ParentID: d.ParentID, Vectors: vecs}
	}
	stores := []*Segmented{
		NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 64, CompactionFanIn: 2}),
		NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 64, CompactionFanIn: 2}),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(stores))
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.AddBulk(docs)
			s.Publish()
			s.WaitCompaction()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range docs {
		if len(d.Vectors) != len(before[i].Vectors) {
			t.Fatalf("%s: caller's vector map now holds %d fields, was %d", d.ID, len(d.Vectors), len(before[i].Vectors))
		}
		for f, v := range before[i].Vectors {
			if !slices.Equal(d.Vectors[f], v) {
				t.Fatalf("%s %s: caller's vector changed to %v, was %v", d.ID, f, d.Vectors[f], v)
			}
		}
	}
	a, b := stores[0].LiveDocs(), stores[1].LiveDocs()
	if len(a) != len(docs) || len(b) != len(docs) {
		t.Fatalf("stores hold %d and %d live chunks, want %d", len(a), len(b), len(docs))
	}
	for i := range a {
		for f, v := range a[i].Vectors {
			if !slices.Equal(v, b[i].Vectors[f]) || &v[0] == &b[i].Vectors[f][0] {
				t.Fatalf("%s %s: the replicas' arenas should hold equal, separate copies", a[i].ID, f)
			}
		}
	}
}

// TestSnapshotHoldsOneCopy: a snapshot carries each embedding once, in its
// vector index's stream (HNSW graphs in Vectors, exact indexes in Exact);
// the documents carry none. Loaded back, documents read their vectors from
// the restored arenas, bit for bit what was saved.
func TestSnapshotHoldsOneCopy(t *testing.T) {
	for _, kind := range []struct {
		name   string
		vx     func(string) vector.Index
		stream func(indexSnapshot) map[string][]byte
	}{
		{"hnsw", nil, func(s indexSnapshot) map[string][]byte { return s.Vectors }},
		{"exact", func(string) vector.Index { return vector.NewExhaustive() }, func(s indexSnapshot) map[string][]byte { return s.Exact }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			ix := New(Config{VectorIndex: kind.vx})
			docs := viewDocs(60)
			if err := ix.AddBulk(docs); err != nil {
				t.Fatal(err)
			}
			ix.Delete(docs[7].ID)
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var snap indexSnapshot
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			for _, d := range snap.Docs {
				if len(d.Vectors) != 0 {
					t.Fatalf("%s: the snapshot's document carries %d vectors", d.ID, len(d.Vectors))
				}
			}
			if got := kind.stream(snap); len(got) != 2 || len(snap.Vectors)+len(snap.Exact) != 2 {
				t.Fatalf("snapshot streams: %d graphs, %d exact, want 2 %s", len(snap.Vectors), len(snap.Exact), kind.name)
			}
			restored, err := read(bytes.NewReader(buf.Bytes()), Config{})
			if err != nil {
				t.Fatal(err)
			}
			for ord, d := range docs {
				got := restored.Doc(ord)
				for f, raw := range d.Vectors {
					v, arena := got.Vectors[f], restored.vecs[f].Vec(ord)
					if !slices.Equal(v, unitCopy(raw)) || &v[0] != &arena[0] {
						t.Fatalf("%s %s: restored document does not read its vector from the arena", d.ID, f)
					}
				}
			}
		})
	}
}
