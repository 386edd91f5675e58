package ingest

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

const pageA = `<html><head><title>Pagina A</title><meta name="domain" content="prodotti"><meta name="section" content="carte"><meta name="topic" content="t1"></head><body><h1>Pagina A</h1><p>Contenuto A.</p></body></html>`
const pageB = `<html><head><title>Pagina B</title></head><body><p>Contenuto B.</p></body></html>`

// mutableSource lets tests change the page set between polls.
type mutableSource struct{ pages []Page }

func (m *mutableSource) Pages() []Page { return m.pages }

// sync runs one pass in which every change reaches the index.
func sync(ing *Ingester) []Extracted {
	changes := ing.Changes()
	ing.Commit(changes)
	return changes
}

func TestSyncExtractsAll(t *testing.T) {
	ing := &Ingester{Source: StaticSource{{ID: "a", HTML: pageA}, {ID: "b", HTML: pageB}}}
	changes := sync(ing)
	if len(changes) != 2 {
		t.Fatalf("changes = %d", len(changes))
	}
	first := changes[0]
	if first.ID != "a" || first.Title != "Pagina A" || first.Domain != "prodotti" ||
		first.Section != "carte" || first.Topic != "t1" {
		t.Fatalf("extracted = %+v", first)
	}
	if len(first.Doc.Paragraphs) == 0 {
		t.Fatal("no paragraphs extracted")
	}
}

func TestSyncIdempotent(t *testing.T) {
	ing := &Ingester{Source: StaticSource{{ID: "a", HTML: pageA}}}
	sync(ing)
	if n := len(sync(ing)); n != 0 {
		t.Fatalf("unchanged pages republished: %d", n)
	}
}

func TestSyncDetectsModification(t *testing.T) {
	src := &mutableSource{pages: []Page{{ID: "a", HTML: pageA}}}
	ing := &Ingester{Source: src}
	sync(ing)

	src.pages = []Page{{ID: "a", HTML: pageA + "<!-- edit -->"}}
	if n := len(sync(ing)); n != 1 {
		t.Fatalf("modification not detected: %d", n)
	}
}

func TestSyncDetectsDeletion(t *testing.T) {
	src := &mutableSource{pages: []Page{{ID: "a", HTML: pageA}, {ID: "b", HTML: pageB}}}
	ing := &Ingester{Source: src}
	sync(ing)

	src.pages = []Page{{ID: "a", HTML: pageA}}
	changes := sync(ing)
	if len(changes) != 1 {
		t.Fatalf("deletion not detected: %d", len(changes))
	}
	if msg := changes[0]; msg.ID != "b" || !msg.Deleted {
		t.Fatalf("deletion message = %+v", msg)
	}
	// A re-added page is re-published.
	src.pages = []Page{{ID: "a", HTML: pageA}, {ID: "b", HTML: pageB}}
	if n := len(sync(ing)); n != 1 {
		t.Fatalf("re-added page not republished: %d", n)
	}
}

// TestUncommittedChangeIsOfferedAgain: a change stays in the change set of
// every pass until Commit records that it reached the index, and committing
// a prefix leaves the rest pending.
func TestUncommittedChangeIsOfferedAgain(t *testing.T) {
	src := &mutableSource{pages: []Page{{ID: "a", HTML: pageA}, {ID: "b", HTML: pageB}}}
	ing := &Ingester{Source: src}
	first := ing.Changes()
	if again := ing.Changes(); !reflect.DeepEqual(first, again) {
		t.Fatalf("uncommitted pass not repeated:\n%+v\n%+v", first, again)
	}
	ing.Commit(first[:1])
	if rest := ing.Changes(); len(rest) != 1 || rest[0].ID != "b" {
		t.Fatalf("after committing a: %+v", rest)
	}
	sync(ing)

	// The same holds for a deletion.
	src.pages = src.pages[:1]
	if gone := ing.Changes(); len(gone) != 1 || !gone[0].Deleted {
		t.Fatalf("deletion = %+v", gone)
	}
	if gone := sync(ing); len(gone) != 1 || gone[0].ID != "b" {
		t.Fatalf("uncommitted deletion not repeated: %+v", gone)
	}
	if n := len(sync(ing)); n != 0 {
		t.Fatalf("committed deletion repeated: %d", n)
	}
}

// TestChangesAreDeterministic: two ingesters fed the same listings produce
// identical change lists, vanished pages in id order.
func TestChangesAreDeterministic(t *testing.T) {
	var full []Page
	for i := 0; i < 40; i++ {
		full = append(full, Page{ID: fmt.Sprintf("p%02d", (i*17)%40), HTML: pageA})
	}
	listings := [][]Page{full, full[:3], {{ID: "p00", HTML: pageB}}}

	srcA, srcB := &mutableSource{}, &mutableSource{}
	a, b := &Ingester{Source: srcA}, &Ingester{Source: srcB}
	for i, listing := range listings {
		srcA.pages, srcB.pages = listing, listing
		ca, cb := sync(a), sync(b)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("pass %d: change lists differ", i)
		}
		var gone []string
		for _, c := range ca {
			if c.Deleted {
				gone = append(gone, c.ID)
			}
		}
		if !sort.StringsAreSorted(gone) {
			t.Fatalf("pass %d: deletions out of order: %v", i, gone)
		}
		if i == 1 && len(gone) != 37 {
			t.Fatalf("pass 1: %d deletions, want 37", len(gone))
		}
	}
}

func TestDefaultPollInterval(t *testing.T) {
	if DefaultPollInterval != 15*time.Minute {
		t.Fatalf("DefaultPollInterval = %v, paper specifies 15 minutes", DefaultPollInterval)
	}
}
