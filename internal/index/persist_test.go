package index

import (
	"bytes"
	"testing"
)

func TestPersistRoundTrip(t *testing.T) {
	ix, emb := newTestIndex(t)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := read(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}

	if restored.Len() != ix.Len() {
		t.Fatalf("len %d != %d", restored.Len(), ix.Len())
	}
	// Text search results must be identical.
	q := "bloccare la carta di credito"
	a := ix.SearchText(q, 10, TextOptions{})
	b := restored.SearchText(q, 10, TextOptions{})
	if len(a) != len(b) {
		t.Fatalf("text results differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("text hit %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Vector search results must be identical (HNSW graph restored, not
	// rebuilt).
	qv := emb.Embed(q)
	av := ix.SearchVector("contentVector", qv, 3, nil)
	bv := restored.SearchVector("contentVector", qv, 3, nil)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("vector hit %d differs: %+v vs %+v", i, av[i], bv[i])
		}
	}
	// Filters must survive.
	fa := ix.SearchText("carta conto", 10, TextOptions{Filters: []Filter{{Field: "domain", Value: "prodotti"}}})
	fb := restored.SearchText("carta conto", 10, TextOptions{Filters: []Filter{{Field: "domain", Value: "prodotti"}}})
	if len(fa) != len(fb) {
		t.Fatalf("filtered results differ: %d vs %d", len(fa), len(fb))
	}
	// Stored documents and retrievable projection must survive.
	doc, ok := restored.DocByID("d1#0")
	if !ok || doc.Fields["title"] == "" {
		t.Fatalf("restored doc = %+v, %v", doc, ok)
	}
	// The restored index must accept new documents.
	if err := restored.Add(Document{ID: "new#0", Fields: map[string]string{"title": "nuovo documento"}}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ix := New(Config{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := read(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Fatalf("len = %d", restored.Len())
	}
	if hits := restored.SearchText("qualcosa", 5, TextOptions{}); hits != nil {
		t.Fatalf("hits = %v", hits)
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := read(bytes.NewReader([]byte("not a gob stream")), Config{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDeleteAndReAdd(t *testing.T) {
	ix, emb := newTestIndex(t)
	if !ix.Delete("d1#0") {
		t.Fatal("Delete returned false")
	}
	if ix.Delete("d1#0") {
		t.Fatal("double delete returned true")
	}
	if ix.LiveLen() != 4 || ix.Tombstones() != 1 {
		t.Fatalf("live=%d tombstones=%d", ix.LiveLen(), ix.Tombstones())
	}
	// Tombstoned chunk disappears from text and vector search.
	for _, h := range ix.SearchText("bloccare la carta di credito", 10, TextOptions{}) {
		if h.ID == "d1#0" {
			t.Fatal("tombstoned chunk in text results")
		}
	}
	qv := emb.Embed("bloccare la carta di credito")
	for _, h := range ix.SearchVector("contentVector", qv, 5, nil) {
		if h.ID == "d1#0" {
			t.Fatal("tombstoned chunk in vector results")
		}
	}
	if _, ok := ix.DocByID("d1#0"); ok {
		t.Fatal("tombstoned chunk still resolvable")
	}
	// The external id is free for a replacement.
	err := ix.Add(Document{ID: "d1#0", ParentID: "d1", Fields: map[string]string{
		"title": "Blocco carta aggiornato", "content": "Per bloccare la carta usare la nuova app mobile.",
	}})
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.SearchText("nuova app mobile", 5, TextOptions{})
	if len(hits) == 0 || hits[0].ID != "d1#0" {
		t.Fatalf("replacement not searchable: %v", hits)
	}
}

func TestDeleteParent(t *testing.T) {
	ix, _ := newTestIndex(t)
	ix.Add(Document{ID: "d1#1", ParentID: "d1", Fields: map[string]string{"content": "secondo frammento della carta"}})
	if n := ix.DeleteParent("d1"); n != 2 {
		t.Fatalf("DeleteParent removed %d chunks, want 2", n)
	}
	if ix.HasParent("d1") {
		t.Fatal("parent still live")
	}
	if n := ix.DeleteParent("nonexistent"); n != 0 {
		t.Fatalf("DeleteParent(missing) = %d", n)
	}
}

func TestCompactDropsTombstones(t *testing.T) {
	ix, emb := newTestIndex(t)
	ix.Delete("d2#0")
	compacted, err := ix.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Len() != 4 || compacted.Tombstones() != 0 {
		t.Fatalf("compacted len=%d tombstones=%d", compacted.Len(), compacted.Tombstones())
	}
	// Search results must be equivalent to the tombstoned index.
	q := "bloccare la carta di credito"
	a := ix.SearchText(q, 10, TextOptions{})
	b := compacted.SearchText(q, 10, TextOptions{})
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("hit %d differs: %s vs %s", i, a[i].ID, b[i].ID)
		}
	}
	_ = emb
}

func TestPersistPreservesTombstones(t *testing.T) {
	ix, _ := newTestIndex(t)
	ix.Delete("d3#0")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := read(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.LiveLen() != ix.LiveLen() || restored.Tombstones() != 1 {
		t.Fatalf("restored live=%d tombstones=%d", restored.LiveLen(), restored.Tombstones())
	}
	if _, ok := restored.DocByID("d3#0"); ok {
		t.Fatal("tombstoned chunk resurrected by persistence")
	}
	for _, h := range restored.SearchText("ERR-4032", 5, TextOptions{}) {
		if h.ID == "d3#0" {
			t.Fatal("tombstoned chunk searchable after restore")
		}
	}
}
