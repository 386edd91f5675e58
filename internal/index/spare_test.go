package index

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"uniask/internal/vector"
)

// TestSealedPartKeepsNoSpare: a sealed part — a sealed memtable or a
// merge's result — holds only what queries read. Its documents carry no
// vector maps, the chunks of one page read one title-vector slot, every
// posting list is exactly as long as its array, and no graph keeps build
// state; nor do the graphs of the fresh memtable, which nothing was added
// to yet.
func TestSealedPartKeepsNoSpare(t *testing.T) {
	docs := residentChunks(160, rand.New(rand.NewSource(11)))
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: -1})
	for _, batch := range [][]Document{docs[:60], docs[60:110], docs[110:]} {
		if err := s.AddBulk(batch); err != nil {
			t.Fatal(err)
		}
		s.Publish()
	}
	check := func(when string) {
		t.Helper()
		for i, part := range s.sealed {
			for ord, d := range part.docs {
				if d.Vectors != nil {
					t.Fatalf("%s: segment %d stores %s with a vector map", when, i, d.ID)
				}
				if ord > 0 && part.docs[ord-1].ParentID == d.ParentID {
					prev, cur := part.vecs["titleVector"].Vec(ord-1), part.vecs["titleVector"].Vec(ord)
					if &prev[0] != &cur[0] {
						t.Fatalf("%s: segment %d: %s reads another title slot than its page's previous chunk", when, i, d.ID)
					}
				}
			}
			for name, fi := range part.fields {
				for term, pl := range fi.postings {
					if cap(pl) != len(pl) {
						t.Fatalf("%s: segment %d: %s postings of %q hold %d entries in %d", when, i, name, term, len(pl), cap(pl))
					}
				}
			}
			for name, vx := range part.vecs {
				if vx.(*vector.HNSW).HoldsBuildState() {
					t.Fatalf("%s: segment %d: the %s graph holds build state", when, i, name)
				}
			}
		}
		for name, vx := range s.mem.vecs {
			if vx.(*vector.HNSW).HoldsBuildState() {
				t.Fatalf("%s: the empty memtable's %s graph holds build state", when, name)
			}
		}
	}
	check("after Publish")
	if err := s.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.sealed) != 1 {
		t.Fatalf("CompactAll left %d sealed segments, want 1", len(s.sealed))
	}
	check("after a merge")
}

// TestReleasedPartTakesAdds: a part that released its build state and then
// takes more Adds ends as the part that never released it: the same graphs
// to the byte, and posting lists whose appends overwrote no neighbour.
func TestReleasedPartTakesAdds(t *testing.T) {
	docs := residentChunks(120, rand.New(rand.NewSource(13)))
	released, kept := New(Config{}), New(Config{})
	if err := released.AddBulk(docs[:70]); err != nil {
		t.Fatal(err)
	}
	released.releaseBuildState()
	if err := released.AddBulk(docs[70:]); err != nil {
		t.Fatal(err)
	}
	if err := kept.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	for name := range kept.vecs {
		var a, b bytes.Buffer
		if err := released.vecs[name].(*vector.HNSW).Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := kept.vecs[name].(*vector.HNSW).Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("the %s graph built across a release differs from the one built without", name)
		}
	}
	for name, fi := range kept.fields {
		if !reflect.DeepEqual(released.fields[name].postings, fi.postings) {
			t.Fatalf("%s postings built across a release differ from the ones built without", name)
		}
	}
}
