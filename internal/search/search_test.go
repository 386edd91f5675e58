package search

import (
	"context"
	"fmt"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/llm"
	"uniask/internal/rerank"
	"uniask/internal/vector"
)

// buildSearcher indexes a small hand-crafted chunk set.
func buildSearcher(t *testing.T) (*Searcher, *embedding.Synth) {
	t.Helper()
	lex := embedding.MapLexicon{
		"blocca": "act:block", "sospende": "act:block",
		"cart": "obj:card", "tesser": "obj:card",
		"bonific": "obj:transfer", "trasferiment": "obj:transfer",
	}
	emb := embedding.NewSynth(64, lex)
	ix := index.New(index.Config{})
	docs := []struct{ id, title, content string }{
		{"d1#0", "Blocco carta di credito", "Per bloccare la carta di credito chiamare il numero verde dedicato."},
		{"d1#1", "Blocco carta di credito", "Il blocco della carta è definitivo dopo la denuncia."},
		{"d2#0", "Bonifico estero", "Il bonifico verso paesi extra SEPA richiede il codice BIC della banca."},
		{"d3#0", "Errore ERR-4032", "In caso di errore ERR-4032 durante il bonifico verificare il codice IBAN."},
		{"d4#0", "Apertura conto corrente", "La procedura di apertura del conto corrente prevede il riconoscimento del cliente."},
	}
	for _, d := range docs {
		err := ix.Add(index.Document{
			ID:       d.id,
			ParentID: d.id[:2],
			Fields:   map[string]string{"title": d.title, "content": d.content},
			Vectors: map[string]vector.Vector{
				"titleVector":   emb.Embed(d.title),
				"contentVector": emb.Embed(d.content),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return &Searcher{
		Index:    ix,
		Embedder: emb,
		Reranker: rerank.New(),
		LLM:      llm.NewSim(llm.DefaultBehavior()),
	}, emb
}

func TestHybridSearchExactQuery(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("results = %+v", res)
	}
}

func TestHybridSearchSynonymQuery(t *testing.T) {
	s, _ := buildSearcher(t)
	// Pure paraphrase: "sospendere la tessera" shares no word with d1 but
	// the same concepts; vector search must rescue it.
	res, err := s.Search(context.Background(), "sospendere la tessera", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results for synonym query")
	}
	if res[0].ParentID != "d1" {
		t.Fatalf("synonym query top = %+v", res[0])
	}
}

func TestTextOnlyMisssesSynonyms(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "sospendere la tessera", Options{Mode: TextOnly})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ParentID == "d1" {
			t.Fatalf("text-only search should not match a pure paraphrase: %+v", res)
		}
	}
}

func TestVectorOnlyFindsSynonyms(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "sospendere la tessera", Options{Mode: VectorOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("vector-only results = %+v", res)
	}
}

func TestCodeQueryRanksExactDocFirst(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "ERR-4032", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "d3" {
		t.Fatalf("code query results = %+v", res)
	}
}

func TestRerankingChangesScores(t *testing.T) {
	s, _ := buildSearcher(t)
	with, _ := s.Search(context.Background(), "bloccare la carta", Options{})
	without, _ := s.Search(context.Background(), "bloccare la carta", Options{DisableSemanticRerank: true})
	if len(with) == 0 || len(without) == 0 {
		t.Fatal("missing results")
	}
	// Reranked scores include the semantic component and must be larger.
	if with[0].Score <= without[0].Score {
		t.Fatalf("rerank score not added: %v vs %v", with[0].Score, without[0].Score)
	}
}

func TestQGAExpansionRuns(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "Come posso bloccare la carta?", Options{Expansion: QGA})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("QGA returned nothing")
	}
}

func TestMQ1ExpansionRuns(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "Come posso bloccare la carta?", Options{Expansion: MQ1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("MQ1 results = %+v", res)
	}
}

func TestMQ2ExpansionRuns(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "Come posso bloccare la carta?", Options{Expansion: MQ2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("MQ2 results = %+v", res)
	}
}

func TestExpansionErrorDegrades(t *testing.T) {
	s, _ := buildSearcher(t)
	s.LLM = failingClient{}
	for _, exp := range []Expansion{QGA, MQ1, MQ2} {
		hits, err := s.SearchDegraded(context.Background(), "bloccare la carta", Options{Expansion: exp})
		if err != nil {
			t.Fatalf("expansion %d with failing LLM errored: %v", exp, err)
		}
		res, deg := hits.Results, hits.Degradation
		if !deg.ExpansionSkipped {
			t.Fatalf("expansion %d: degradation not reported: %+v", exp, deg)
		}
		if len(res) == 0 || res[0].ParentID != "d1" {
			t.Fatalf("expansion %d degraded results = %+v", exp, res)
		}
	}
}

type failingClient struct{}

func (failingClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{}, fmt.Errorf("llm down")
}

func TestParentRankingDedupes(t *testing.T) {
	in := []Result{
		{ChunkID: "d1#0", ParentID: "d1"},
		{ChunkID: "d1#1", ParentID: "d1"},
		{ChunkID: "d2#0", ParentID: "d2"},
	}
	got := ParentRanking(in)
	if len(got) != 2 || got[0] != "d1" || got[1] != "d2" {
		t.Fatalf("ParentRanking = %v", got)
	}
	if ParentRanking(nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestDeterministicResults(t *testing.T) {
	s, _ := buildSearcher(t)
	a, _ := s.Search(context.Background(), "bloccare carta", Options{})
	b, _ := s.Search(context.Background(), "bloccare carta", Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic results at %d", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TextN != 50 || o.VectorK != 15 || finalN != 50 || o.RRFC != 60 || relatedQueries != 3 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestSortResults(t *testing.T) {
	rs := []Result{
		{ChunkID: "b", Score: 1},
		{ChunkID: "a", Score: 3},
		{ChunkID: "c", Score: 2},
		{ChunkID: "aa", Score: 2},
	}
	sortResults(rs)
	if rs[0].ChunkID != "a" || rs[1].ChunkID != "aa" || rs[2].ChunkID != "c" || rs[3].ChunkID != "b" {
		t.Fatalf("sortResults = %+v", rs)
	}
}

func TestEmptyQueryYieldsNoResults(t *testing.T) {
	s, _ := buildSearcher(t)
	res, err := s.Search(context.Background(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The empty query produces an empty text ranking and a zero query
	// vector; results may be empty or all-zero-scored but must not panic.
	_ = res
}
