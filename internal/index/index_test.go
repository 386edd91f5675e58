package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"uniask/internal/embedding"
	"uniask/internal/vector"
)

func newTestIndex(t *testing.T) (*Index, *embedding.Synth) {
	t.Helper()
	emb := embedding.NewSynth(64, nil)
	ix := New(Config{})
	docs := []struct {
		id, title, content, domain string
	}{
		{"d1#0", "Blocco carta di credito", "Per bloccare la carta di credito chiamare il numero verde dedicato.", "prodotti"},
		{"d2#0", "Bonifico estero", "Il bonifico verso paesi extra SEPA richiede il codice BIC della banca beneficiaria.", "pagamenti"},
		{"d3#0", "Errore ERR-4032", "In caso di errore ERR-4032 durante il bonifico verificare il codice IBAN.", "errori"},
		{"d4#0", "Apertura conto corrente", "La procedura di apertura del conto corrente prevede il riconoscimento del cliente.", "prodotti"},
		{"d5#0", "Mutuo prima casa", "Il mutuo prima casa offre un tasso agevolato per i giovani acquirenti.", "prodotti"},
	}
	for _, d := range docs {
		err := ix.Add(Document{
			ID:       d.id,
			ParentID: strings.Split(d.id, "#")[0],
			Fields: map[string]string{
				"title": d.title, "content": d.content, "domain": d.domain,
			},
			Vectors: map[string]vector.Vector{
				"titleVector":   emb.Embed(d.title),
				"contentVector": emb.Embed(d.content),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ix, emb
}

func TestAddAndLen(t *testing.T) {
	ix, _ := newTestIndex(t)
	if ix.Len() != 5 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestDuplicateID(t *testing.T) {
	ix, _ := newTestIndex(t)
	err := ix.Add(Document{ID: "d1#0", Fields: map[string]string{"title": "x"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	ix, _ := newTestIndex(t)
	err := ix.Add(Document{ID: "new", Fields: map[string]string{"nope": "x"}})
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	err = ix.Add(Document{ID: "new2", Vectors: map[string]vector.Vector{"title": {1}}})
	if err == nil {
		t.Fatal("non-vector field accepted as vector")
	}
}

func TestSearchTextFindsRelevant(t *testing.T) {
	ix, _ := newTestIndex(t)
	hits := ix.SearchText("bloccare la carta di credito", 10, TextOptions{})
	if len(hits) == 0 || hits[0].ID != "d1#0" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchTextCodeQuery(t *testing.T) {
	ix, _ := newTestIndex(t)
	hits := ix.SearchText("ERR-4032", 10, TextOptions{})
	if len(hits) == 0 || hits[0].ID != "d3#0" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchTextEmptyAndNoMatch(t *testing.T) {
	ix, _ := newTestIndex(t)
	if hits := ix.SearchText("", 10, TextOptions{}); hits != nil {
		t.Fatalf("empty query: %v", hits)
	}
	if hits := ix.SearchText("zzz parolainesistente", 10, TextOptions{}); len(hits) != 0 {
		t.Fatalf("no-match query: %v", hits)
	}
	if hits := ix.SearchText("carta", 0, TextOptions{}); hits != nil {
		t.Fatalf("n=0: %v", hits)
	}
}

func TestSearchTextStemmedMatch(t *testing.T) {
	ix, _ := newTestIndex(t)
	// "bonifici" (plural) must match documents mentioning "bonifico".
	hits := ix.SearchText("bonifici esteri", 10, TextOptions{})
	if len(hits) == 0 {
		t.Fatal("stemmed query found nothing")
	}
	if hits[0].ID != "d2#0" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSearchTextScoresSortedAndDeterministic(t *testing.T) {
	ix, _ := newTestIndex(t)
	a := ix.SearchText("codice bonifico", 10, TextOptions{})
	b := ix.SearchText("codice bonifico", 10, TextOptions{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic hit order")
		}
		if i > 0 && a[i-1].Score < a[i].Score {
			t.Fatal("not sorted by score")
		}
	}
}

func TestFieldWeightsBoostTitle(t *testing.T) {
	ix, _ := newTestIndex(t)
	// "conto" appears in d4 title+content; boosting title should raise d4's
	// score relative to unboosted.
	plain := ix.SearchText("apertura conto", 10, TextOptions{})
	boosted := ix.SearchText("apertura conto", 10, TextOptions{
		FieldWeights: map[string]float64{"title": 50},
	})
	if plain[0].ID != "d4#0" || boosted[0].ID != "d4#0" {
		t.Fatalf("plain=%v boosted=%v", plain, boosted)
	}
	if boosted[0].Score <= plain[0].Score {
		t.Fatalf("boost had no effect: %v vs %v", boosted[0].Score, plain[0].Score)
	}
}

func TestFilters(t *testing.T) {
	ix, _ := newTestIndex(t)
	hits := ix.SearchText("carta conto mutuo bonifico", 10, TextOptions{
		Filters: []Filter{{Field: "domain", Value: "prodotti"}},
	})
	for _, h := range hits {
		doc, _ := ix.DocByID(h.ID)
		if doc.Fields["domain"] != "prodotti" {
			t.Fatalf("filter leaked: %v", doc.Fields)
		}
	}
	if len(hits) == 0 {
		t.Fatal("filtered search found nothing")
	}
	// Impossible filter conjunction.
	none := ix.SearchText("carta", 10, TextOptions{
		Filters: []Filter{{Field: "domain", Value: "prodotti"}, {Field: "domain", Value: "errori"}},
	})
	if len(none) != 0 {
		t.Fatalf("conjunctive filter failed: %v", none)
	}
}

func TestSearchVector(t *testing.T) {
	ix, emb := newTestIndex(t)
	q := emb.Embed("bloccare la carta di credito")
	hits := ix.SearchVector("contentVector", q, 3, nil)
	if len(hits) != 3 {
		t.Fatalf("got %d hits", len(hits))
	}
	if hits[0].ID != "d1#0" {
		t.Fatalf("vector search top = %v", hits[0])
	}
}

func TestSearchVectorWithFilter(t *testing.T) {
	ix, emb := newTestIndex(t)
	q := emb.Embed("carta di credito")
	hits := ix.SearchVector("contentVector", q, 5, []Filter{{Field: "domain", Value: "pagamenti"}})
	for _, h := range hits {
		if doc, _ := ix.DocByID(h.ID); doc.Fields["domain"] != "pagamenti" {
			t.Fatalf("vector filter leaked")
		}
	}
}

func TestSearchVectorUnknownField(t *testing.T) {
	ix, emb := newTestIndex(t)
	if hits := ix.SearchVector("nope", emb.Embed("x"), 3, nil); hits != nil {
		t.Fatalf("unknown vector field: %v", hits)
	}
}

func TestVectorFields(t *testing.T) {
	ix, _ := newTestIndex(t)
	vf := ix.VectorFields()
	if len(vf) != 2 || vf[0] != "contentVector" || vf[1] != "titleVector" {
		t.Fatalf("VectorFields = %v", vf)
	}
}

func TestBM25IDFOrdersRareTermsFirst(t *testing.T) {
	emb := embedding.NewSynth(32, nil)
	_ = emb
	ix := New(Config{})
	// "banca" is in every doc (common), "anatocismo" only in one (rare).
	for i := 0; i < 20; i++ {
		content := "la banca offre servizi alla clientela"
		if i == 7 {
			content = "la banca applica la disciplina sull'anatocismo bancario"
		}
		err := ix.Add(Document{ID: fmt.Sprintf("d%d", i), Fields: map[string]string{"content": content}})
		if err != nil {
			t.Fatal(err)
		}
	}
	hits := ix.SearchText("anatocismo banca", 5, TextOptions{})
	if len(hits) == 0 || hits[0].ID != "d7" {
		t.Fatalf("rare term did not dominate: %v", hits)
	}
}

func TestTermStats(t *testing.T) {
	ix, _ := newTestIndex(t)
	if df := len(ix.fields["content"].postings["bonific"]); df != 2 {
		t.Fatalf("df(bonific) = %d, want 2", df)
	}
}

// Property: any document added to the index is findable by a distinctive
// term of its own content, and the returned hit maps back to the document.
func TestAddThenFindProperty(t *testing.T) {
	ix := New(Config{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := fmt.Sprintf("q%d#0", rng.Int63())
		if _, exists := ix.DocByID(id); exists {
			return true
		}
		marker := fmt.Sprintf("marcatore%d", rng.Int63())
		err := ix.Add(Document{ID: id, ParentID: id, Fields: map[string]string{
			"content": "testo con " + marker + " incorporato",
		}})
		if err != nil {
			return false
		}
		hits := ix.SearchText(marker, 3, TextOptions{})
		return len(hits) >= 1 && hits[0].ID == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BM25 scores are positive and SearchText never returns more
// than n results.
func TestSearchTextBoundsProperty(t *testing.T) {
	ix, _ := newTestIndex(t)
	f := func(q string, n int) bool {
		if n < 0 {
			n = -n
		}
		n = n % 20
		hits := ix.SearchText(q, n, TextOptions{})
		if len(hits) > n {
			return false
		}
		for _, h := range hits {
			if h.Score <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
