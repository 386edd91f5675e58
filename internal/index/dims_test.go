package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"uniask/internal/vector"
)

// dimDoc is a one-chunk page whose vectors in both fields have dim
// components.
func dimDoc(id string, dim int) Document {
	v := make(vector.Vector, dim)
	for i := range v {
		v[i] = float32(i + 1)
	}
	return Document{
		ID:       id + "#0",
		ParentID: id,
		Fields:   map[string]string{"title": "Pagina " + id, "content": "testo della pagina " + id},
		Vectors:  map[string]vector.Vector{"titleVector": v, "contentVector": v},
	}
}

// TestAddWrongDimensionStoresNothing: a vector whose length disagrees with
// its field's established dimension is refused before anything is stored —
// no document, posting, parent or graph node — so a corrected retry of the
// same id succeeds.
func TestAddWrongDimensionStoresNothing(t *testing.T) {
	ix := New(Config{})
	if err := ix.Add(dimDoc("a", 4)); err != nil {
		t.Fatal(err)
	}
	bad := dimDoc("b", 4)
	bad.Vectors["contentVector"] = vector.Vector{1, 2, 3}
	if err := ix.Add(bad); !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("3-d content vector: err = %v, want ErrDimensionMismatch", err)
	}
	if ix.Len() != 1 || ix.HasParent("b") {
		t.Fatalf("refused add left state behind: Len = %d, HasParent(b) = %v", ix.Len(), ix.HasParent("b"))
	}
	if _, ok := ix.DocByID("b#0"); ok {
		t.Fatal("refused chunk is fetchable")
	}
	for _, h := range ix.SearchText("pagina b", 10, TextOptions{}) {
		if h.ID == "b#0" {
			t.Fatal("refused chunk is text-searchable")
		}
	}
	if err := ix.Add(dimDoc("b", 4)); err != nil {
		t.Fatalf("corrected retry: %v", err)
	}
	if hits := ix.SearchVector("contentVector", dimDoc("q", 4).Vectors["contentVector"], 2, nil); len(hits) != 2 {
		t.Fatalf("vector search after retry: %d hits, want 2", len(hits))
	}
}

// TestSegmentedDimensionAcrossParts: the established dimension of a field
// is the whole store's, not the memtable's — a fresh memtable after a seal,
// and a store loaded from a snapshot, refuse a vector of another length, so
// compaction and vector search never meet one.
func TestSegmentedDimensionAcrossParts(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 1, CompactionFanIn: -1})
	for i, dim := range []int{4, 4, 3, 4} {
		err := seg.Add(dimDoc(fmt.Sprintf("p%d", i), dim))
		switch {
		case dim == 3 && !errors.Is(err, vector.ErrDimensionMismatch):
			t.Fatalf("page %d (3-d) after a seal: err = %v, want ErrDimensionMismatch", i, err)
		case dim == 4 && err != nil:
			t.Fatalf("page %d (4-d): %v", i, err)
		}
	}
	if err := seg.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	q := dimDoc("q", 4).Vectors["contentVector"]
	if hits := seg.SearchVector("contentVector", q, 5, nil); len(hits) != 3 {
		t.Fatalf("vector search: %d hits, want 3", len(hits))
	}

	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSegmented(&buf, Config{}, SegmentConfig{MemtableMaxDocs: 1, CompactionFanIn: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Add(dimDoc("p9", 3)); !errors.Is(err, vector.ErrDimensionMismatch) {
		t.Fatalf("3-d page into a loaded store: err = %v, want ErrDimensionMismatch", err)
	}
	if err := loaded.Add(dimDoc("p9", 4)); err != nil {
		t.Fatalf("4-d page into a loaded store: %v", err)
	}
}
