package kgraph

import (
	"reflect"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/kb"
)

// testLexicon covers a few concepts with their stems.
func testLexicon() embedding.MapLexicon {
	return embedding.MapLexicon{
		"cart":    "card",
		"blocca":  "block",
		"bonific": "transfer",
		"ester":   "abroad",
		"mutu":    "mortgage",
		"tass":    "rate",
	}
}

func testGraph() *Graph {
	docs := []string{
		"Per bloccare la carta chiamare il numero verde.",
		"Il bonifico estero richiede il codice BIC.",
		"Il mutuo prevede un tasso agevolato.",
		"Bloccare la carta in caso di bonifico sospetto.",
	}
	return Build(docs, testLexicon())
}

func TestConceptsOf(t *testing.T) {
	g := testGraph()
	got := g.ConceptsOf("come bloccare la carta di credito?")
	want := []string{"block", "card"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ConceptsOf = %v, want %v", got, want)
	}
	if g.ConceptsOf("testo senza concetti bancari noti") != nil {
		t.Fatal("concepts from concept-free text")
	}
}

func TestEdgesFromCoOccurrence(t *testing.T) {
	g := testGraph()
	// block+card co-occur in d1 and d4.
	if w := g.EdgeWeight("block", "card"); w != 2 {
		t.Fatalf("w(block,card) = %d", w)
	}
	if w := g.EdgeWeight("card", "block"); w != 2 {
		t.Fatal("graph not symmetric")
	}
	// mortgage and card never co-occur.
	if w := g.EdgeWeight("mortgage", "card"); w != 0 {
		t.Fatalf("w(mortgage,card) = %d", w)
	}
}

func TestConnected(t *testing.T) {
	g := testGraph()
	if !g.Connected("block", "card", 1) {
		t.Fatal("direct edge not connected")
	}
	// transfer—abroad direct; card—abroad via transfer (d4 links card &
	// transfer; d2 links transfer & abroad) -> 2 hops.
	if g.Connected("card", "abroad", 1) {
		t.Fatal("card-abroad should not be 1-hop")
	}
	if !g.Connected("card", "abroad", 2) {
		t.Fatal("card-abroad should be 2-hop")
	}
	if g.Connected("card", "mortgage", 5) {
		t.Fatal("disconnected components reported connected")
	}
	if !g.Connected("card", "card", 0) {
		t.Fatal("self not connected")
	}
}

func TestCheckAnswerOnTopic(t *testing.T) {
	g := testGraph()
	v := g.CheckAnswer(
		"come bloccare la carta?",
		"Per bloccare la carta chiamare il numero verde.")
	if !v.OnTopic {
		t.Fatalf("grounded answer off-topic: %+v", v)
	}
}

func TestCheckAnswerDrift(t *testing.T) {
	g := testGraph()
	// The answer talks about mortgages and rates: unrelated to the card
	// question (different graph component).
	v := g.CheckAnswer(
		"come bloccare la carta?",
		"Il mutuo prevede un tasso agevolato per i giovani.")
	if v.OnTopic {
		t.Fatalf("drift answer passed: %+v", v)
	}
	if len(v.OffTopicConcepts) == 0 {
		t.Fatal("no off-topic concepts reported")
	}
}

func TestCheckAnswerBoilerplate(t *testing.T) {
	g := testGraph()
	v := g.CheckAnswer(
		"come bloccare la carta?",
		"In generale conviene rivolgersi al proprio consulente di riferimento.")
	if v.OnTopic {
		t.Fatal("concept-free boilerplate passed")
	}
}

func TestCheckAnswerAbstainsWithoutQuestionConcepts(t *testing.T) {
	g := testGraph()
	v := g.CheckAnswer("che tempo fa domani?", "Il mutuo prevede un tasso.")
	if !v.OnTopic {
		t.Fatal("check should abstain when the question has no concepts")
	}
}

func TestBuildFromGeneratedCorpus(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 200, Seed: 6})
	var docs []string
	for _, d := range corpus.Docs {
		text := d.Title
		for _, p := range d.Paragraphs {
			text += " " + p
		}
		docs = append(docs, text)
	}
	g := Build(docs, corpus.Lexicon())
	if g.Nodes() < 30 {
		t.Fatalf("graph too small: %d nodes", g.Nodes())
	}
	// A document's own concepts must pass the check against a question
	// built from them.
	d := corpus.Docs[0]
	v := g.CheckAnswer("Come posso "+d.Title+"?", d.AnswerSentence)
	if !v.OnTopic {
		t.Fatalf("self-answer off-topic: %+v", v)
	}
}
