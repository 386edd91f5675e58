package guardrails

import (
	"strings"
	"testing"
)

var contexts = []string{
	"Per bloccare la carta di credito è necessario chiamare il numero verde. Il servizio è attivo tutti i giorni.",
	"Il bonifico verso paesi extra SEPA richiede il codice BIC della banca beneficiaria.",
}

func TestGroundedAnswerPasses(t *testing.T) {
	p := New(Config{})
	answer := "Per bloccare la carta di credito è necessario chiamare il numero verde [doc1]."
	if got := p.CheckAnswer(answer, []string{"doc1"}, contexts); got != None {
		t.Fatalf("trigger = %v", got)
	}
}

func TestCitationGuardrail(t *testing.T) {
	p := New(Config{})
	answer := "Per bloccare la carta di credito è necessario chiamare il numero verde."
	if got := p.CheckAnswer(answer, nil, contexts); got != Citation {
		t.Fatalf("trigger = %v, want Citation", got)
	}
}

func TestRougeGuardrail(t *testing.T) {
	p := New(Config{})
	answer := "Le compagnie aeree applicano tariffe differenti per i bagagli in stiva durante la stagione estiva [doc1]."
	if got := p.CheckAnswer(answer, []string{"doc1"}, contexts); got != Rouge {
		t.Fatalf("trigger = %v, want Rouge", got)
	}
}

func TestClarificationGuardrail(t *testing.T) {
	p := New(Config{})
	answer := "Per bloccare la carta è necessario chiamare il numero verde [doc1]. Potresti fornire maggiori dettagli sulla tua richiesta?"
	if got := p.CheckAnswer(answer, []string{"doc1"}, contexts); got != Clarification {
		t.Fatalf("trigger = %v, want Clarification", got)
	}
}

func TestClarificationOnlyAtTail(t *testing.T) {
	p := New(Config{})
	// The phrase appears mid-answer but the answer does not end with a
	// question: must not trigger.
	answer := "Il modulo per maggiori dettagli è disponibile in filiale; per bloccare la carta di credito è necessario chiamare il numero verde del servizio clienti della banca [doc1]."
	if got := p.CheckAnswer(answer, []string{"doc1"}, contexts); got != None {
		t.Fatalf("trigger = %v, want None", got)
	}
}

func TestGuardrailOrder(t *testing.T) {
	p := New(Config{})
	// No citations AND off-topic AND ends with clarification: the
	// clarification check wins.
	answer := "Non saprei. Potresti fornire maggiori dettagli sulla tua richiesta?"
	if got := p.CheckAnswer(answer, nil, contexts); got != Clarification {
		t.Fatalf("trigger = %v, want Clarification first", got)
	}
}

func TestRougeThresholdConfigurable(t *testing.T) {
	strict := New(Config{RougeThreshold: 0.9})
	// A partially grounded answer passes the default but fails at 0.9.
	answer := "Per bloccare la carta serve chiamare il numero verde come indicato dalla banca [doc1]."
	if got := New(Config{}).CheckAnswer(answer, []string{"doc1"}, contexts); got != None {
		t.Fatalf("default: %v", got)
	}
	if got := strict.CheckAnswer(answer, []string{"doc1"}, contexts); got != Rouge {
		t.Fatalf("strict: %v, want Rouge", got)
	}
	if New(Config{}).RougeThreshold() != DefaultRougeThreshold {
		t.Fatal("default threshold not applied")
	}
}

func TestCheckQuestionContentFilter(t *testing.T) {
	p := New(Config{})
	if got := p.CheckQuestion("Come posso bloccare la carta?"); got != None {
		t.Fatalf("benign question blocked: %v", got)
	}
	if got := p.CheckQuestion("questo maledetto sistema non funziona, come sbloccare la carta?"); got != Content {
		t.Fatalf("profanity not blocked: %v", got)
	}
}

func TestContentFilterCategories(t *testing.T) {
	f := NewContentFilter()
	cases := map[string]string{
		"voglio uccidere il tempo":        "violence",
		"il sistema è schifoso":           "profanity",
		"come discriminare gli stranieri": "hate",
	}
	for text, wantCat := range cases {
		cat, blocked := f.Category(text)
		if !blocked || cat != wantCat {
			t.Errorf("Category(%q) = %q,%v; want %q", text, cat, blocked, wantCat)
		}
	}
	if f.Blocked("come aprire un conto corrente") {
		t.Error("benign text blocked")
	}
}

func TestContentFilterCaseInsensitive(t *testing.T) {
	f := NewContentFilter()
	if !f.Blocked("MALEDETTO sistema") {
		t.Fatal("upper-case profanity not blocked")
	}
}

func TestContentFilterAddTerm(t *testing.T) {
	f := NewContentFilter()
	f.AddTerm("custom", "parolavietata")
	if !f.Blocked("contiene una parolavietata qui") {
		t.Fatal("added term not blocked")
	}
}

func TestTriggerString(t *testing.T) {
	names := map[Trigger]string{
		None: "none", Citation: "citation", Rouge: "rouge",
		Clarification: "clarification", Content: "content-filter",
	}
	for tr, want := range names {
		if tr.String() != want {
			t.Errorf("%d.String() = %q", tr, tr.String())
		}
	}
	if Trigger(99).String() != "unknown" {
		t.Error("unknown trigger name")
	}
}

func TestEmptyAnswerAndContexts(t *testing.T) {
	p := New(Config{})
	if got := p.CheckAnswer("", nil, nil); got != Citation {
		t.Fatalf("empty answer: %v", got)
	}
	answer := strings.Repeat("testo privo di fonti ", 3)
	if got := p.CheckAnswer(answer, []string{"doc1"}, nil); got != Rouge {
		t.Fatalf("no contexts with citation: %v", got)
	}
}
