package llm

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"uniask/internal/vclock"
)

var testChunks = []ContextChunk{
	{Key: "doc1", Title: "Blocco carta di credito",
		Content: "Per bloccare la carta di credito è necessario chiamare il numero verde. Il servizio è attivo tutti i giorni."},
	{Key: "doc2", Title: "Bonifico estero",
		Content: "Il bonifico verso paesi extra SEPA richiede il codice BIC della banca beneficiaria."},
}

func sim() *SimLLM { return NewSim(DefaultBehavior()) }

func complete(t *testing.T, c Client, req Request) Response {
	t.Helper()
	resp, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAnswerGroundedWithCitations(t *testing.T) {
	resp := complete(t, sim(), BuildAnswerPrompt("Come posso bloccare la carta di credito?", testChunks))
	if !strings.Contains(resp.Content, "[doc1]") {
		t.Fatalf("answer lacks citation: %q", resp.Content)
	}
	if !strings.Contains(resp.Content, "numero verde") {
		t.Fatalf("answer not extractive: %q", resp.Content)
	}
}

func TestAnswerDeterministic(t *testing.T) {
	req := BuildAnswerPrompt("Come posso bloccare la carta?", testChunks)
	a := complete(t, sim(), req)
	b := complete(t, sim(), req)
	if a.Content != b.Content {
		t.Fatal("nondeterministic answer")
	}
}

func TestAnswerRefusesOffContext(t *testing.T) {
	// A question with zero overlap with the context cannot be answered; the
	// reply must be either a refusal or an uncited drift (never a cited
	// extractive answer).
	resp := complete(t, sim(), BuildAnswerPrompt("Qual è la ricetta della carbonara romana tradizionale?", testChunks))
	if strings.Contains(resp.Content, "numero verde") || strings.Contains(resp.Content, "BIC") {
		t.Fatalf("answered off-context question from context: %q", resp.Content)
	}
}

func TestAnswerEmptyContext(t *testing.T) {
	resp := complete(t, sim(), BuildAnswerPrompt("Come posso bloccare la carta?", nil))
	if !strings.Contains(resp.Content, "non sono in grado") {
		t.Fatalf("no-context answer: %q", resp.Content)
	}
}

func TestAnswerUsage(t *testing.T) {
	resp := complete(t, sim(), BuildAnswerPrompt("Come posso bloccare la carta di credito?", testChunks))
	if resp.PromptTokens == 0 || resp.CompletionTokens == 0 {
		t.Fatalf("usage not reported: %+v", resp)
	}
	if resp.FinishReason != "stop" {
		t.Fatalf("finish = %q", resp.FinishReason)
	}
}

func TestMaxTokensTruncates(t *testing.T) {
	req := BuildAnswerPrompt("Come posso bloccare la carta di credito?", testChunks)
	req.MaxTokens = 5
	resp := complete(t, sim(), req)
	if resp.FinishReason != "length" {
		t.Fatalf("finish = %q, content = %q", resp.FinishReason, resp.Content)
	}
	if resp.CompletionTokens > 5 {
		t.Fatalf("completion tokens = %d", resp.CompletionTokens)
	}
}

func TestEmptyPromptError(t *testing.T) {
	_, err := sim().Complete(context.Background(), Request{})
	if err != ErrEmptyPrompt {
		t.Fatalf("err = %v", err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim().Complete(ctx, BuildAnswerPrompt("x", testChunks))
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestFailureInjectionRates(t *testing.T) {
	// Over many distinct questions the injected failure modes must appear
	// at roughly their configured rates.
	b := Behavior{NoCitationRate: 0.2, DriftRate: 0.1, ClarifyRate: 0.05, MinEvidence: 0.2, Seed: 7}
	s := NewSim(b)
	noCite, clarify, total := 0, 0, 0
	for i := 0; i < 400; i++ {
		q := "Come posso bloccare la carta di credito numero " + strings.Repeat("x", i%7) + "?"
		// Vary the question so each gets an independent RNG draw.
		q = strings.Replace(q, "numero", "numero"+string(rune('a'+i%26)), 1)
		resp := complete(t, s, BuildAnswerPrompt(q, testChunks))
		total++
		if !strings.Contains(resp.Content, "[doc") {
			noCite++
		}
		if strings.Contains(resp.Content, "maggiori dettagli") {
			clarify++
		}
	}
	if noCite < total/20 {
		t.Errorf("no-citation injections too rare: %d/%d", noCite, total)
	}
	if clarify == 0 {
		t.Errorf("clarification injections never fired")
	}
}

func TestSummarize(t *testing.T) {
	req := BuildSummaryPrompt("Blocco carta",
		"Questa pagina descrive la procedura. Per bloccare la carta è necessario chiamare il numero verde. Altre informazioni seguono.")
	resp := complete(t, sim(), req)
	if !strings.Contains(resp.Content, "Blocco carta") {
		t.Fatalf("summary lost title: %q", resp.Content)
	}
	if !strings.Contains(resp.Content, "necessario") {
		t.Fatalf("summary lost instruction sentence: %q", resp.Content)
	}
}

func TestKeywords(t *testing.T) {
	req := BuildKeywordsPrompt("Blocco carta", "la carta di credito la carta la carta il blocco")
	resp := complete(t, sim(), req)
	if !strings.Contains(resp.Content, "cart") {
		t.Fatalf("keywords = %q", resp.Content)
	}
	if strings.Contains(resp.Content, " la") {
		t.Fatalf("stopwords leaked into keywords: %q", resp.Content)
	}
}

func TestRelatedQueries(t *testing.T) {
	req := BuildRelatedQueriesPrompt("Come posso bloccare la carta di credito?", 3)
	resp := complete(t, sim(), req)
	lines := strings.Split(strings.TrimSpace(resp.Content), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d related queries: %q", len(lines), resp.Content)
	}
	for _, l := range lines {
		if !strings.Contains(l, "carta") {
			t.Fatalf("related query lost topic: %q", l)
		}
	}
}

func TestDirectAnswerQGA(t *testing.T) {
	resp := complete(t, sim(), BuildDirectAnswerPrompt("Come posso bloccare la carta di credito?"))
	if !strings.Contains(resp.Content, "carta") {
		t.Fatalf("QGA answer lost topic: %q", resp.Content)
	}
	// Must contain generic boilerplate (the noise that degrades retrieval).
	if len(strings.Fields(resp.Content)) < 10 {
		t.Fatalf("QGA answer too short: %q", resp.Content)
	}
}

func TestParseContextRoundTrip(t *testing.T) {
	req := BuildAnswerPrompt("domanda?", testChunks)
	chunks, ok := parseContext(req)
	if !ok || len(chunks) != 2 || chunks[0].Key != "doc1" || chunks[1].Content == "" {
		t.Fatalf("parseContext = %v, %v", chunks, ok)
	}
	q, ok := parseQuestion(req)
	if !ok || q != "domanda?" {
		t.Fatalf("parseQuestion = %q, %v", q, ok)
	}
}

func TestTaskDispatch(t *testing.T) {
	cases := map[task]Request{
		taskAnswer:   BuildAnswerPrompt("q", testChunks),
		taskSummary:  BuildSummaryPrompt("t", "x"),
		taskKeywords: BuildKeywordsPrompt("t", "x"),
		taskRelated:  BuildRelatedQueriesPrompt("q", 2),
		taskDirect:   BuildDirectAnswerPrompt("q"),
	}
	for want, req := range cases {
		if got := taskOf(req); got != want {
			t.Errorf("taskOf = %v, want %v", got, want)
		}
	}
}

func TestPromptRepeatsCitationInstructions(t *testing.T) {
	// §5: the instructions about citations are repeated more than once.
	req := BuildAnswerPrompt("q", testChunks)
	sys := req.Messages[0].Content
	if strings.Count(sys, "citazion") < 2 {
		t.Fatalf("citation instructions not repeated: %q", sys)
	}
	if !strings.Contains(sys, "italiano") {
		t.Fatal("prompt does not require Italian")
	}
}

func TestServiceRateLimit(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	svc := NewService(sim(), ServiceConfig{
		TokensPerMinute: 1000,
		BurstTokens:     1000,
		Clock:           clk,
	})
	req := BuildAnswerPrompt("Come posso bloccare la carta?", testChunks)
	req.MaxTokens = 100

	// Exhaust the bucket.
	failures := 0
	for i := 0; i < 10; i++ {
		if _, err := svc.Complete(context.Background(), req); err == ErrRateLimited {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("rate limit never triggered")
	}
	reqs, fails := svc.Stats()
	if reqs != 10 || fails != int64(failures) {
		t.Fatalf("stats = %d/%d", reqs, fails)
	}
	// Refill after virtual time passes.
	clk.Advance(time.Minute)
	if _, err := svc.Complete(context.Background(), req); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestServiceNoLimitPassthrough(t *testing.T) {
	svc := NewService(sim(), ServiceConfig{})
	resp, err := svc.Complete(context.Background(), BuildAnswerPrompt("Come posso bloccare la carta di credito?", testChunks))
	if err != nil || resp.Content == "" {
		t.Fatalf("passthrough failed: %v %q", err, resp.Content)
	}
}

func TestParseGroundedness(t *testing.T) {
	cases := map[string]struct {
		score int
		ok    bool
	}{
		"PUNTEGGIO: 5":                     {5, true},
		"PUNTEGGIO: 3 perché coerente":     {3, true},
		"PUNTEGGIO: 9":                     {0, false},
		"PUNTEGGIO:":                       {0, false},
		"la risposta sembra ragionevole":   {0, false},
		"Punteggio: la risposta è valida.": {0, false},
		"":                                 {0, false},
	}
	for in, want := range cases {
		score, ok := ParseGroundedness(in)
		if score != want.score || ok != want.ok {
			t.Errorf("ParseGroundedness(%q) = %d,%v; want %d,%v", in, score, ok, want.score, want.ok)
		}
	}
}

func TestGroundednessJudgeExtractive(t *testing.T) {
	// Extractive answers are the judge's best case, yet format compliance
	// is probabilistic: across many answers some clean scores appear, and
	// every clean score is high.
	s := sim()
	ctxText := "Per bloccare la carta di credito è necessario chiamare il numero verde."
	clean := 0
	for i := 0; i < 40; i++ {
		answer := fmt.Sprintf("Per bloccare la carta di credito è necessario chiamare il numero verde (rif %d).", i)
		req := BuildGroundednessPrompt("Come posso bloccare la carta?", answer, []string{ctxText})
		resp := complete(t, s, req)
		if score, ok := ParseGroundedness(resp.Content); ok {
			clean++
			if score < 3 {
				t.Fatalf("extractive answer scored %d", score)
			}
		}
	}
	if clean == 0 {
		t.Fatal("judge never produced a clean score for extractive answers")
	}
}

func TestGroundednessJudgeUnreliableOnAbstractive(t *testing.T) {
	// Abstractive/partial answers mostly produce non-parseable judgments —
	// the §7 finding that made the paper defer to user testing.
	s := sim()
	ctxText := "Per bloccare la carta di credito è necessario chiamare il numero verde dedicato del servizio clienti."
	failures := 0
	const n = 40
	for i := 0; i < n; i++ {
		answer := fmt.Sprintf("In generale conviene rivolgersi all'assistenza per il blocco, variante %d.", i)
		req := BuildGroundednessPrompt("Come posso bloccare la carta?", answer, []string{ctxText})
		resp := complete(t, s, req)
		if _, ok := ParseGroundedness(resp.Content); !ok {
			failures++
		}
	}
	if failures < n/2 {
		t.Fatalf("judge unexpectedly reliable: %d/%d unparseable", failures, n)
	}
}

func TestGroundednessJudgeDeterministic(t *testing.T) {
	s := sim()
	req := BuildGroundednessPrompt("domanda?", "risposta abbastanza generica sul tema", []string{"contesto di prova sul tema"})
	a := complete(t, s, req)
	b := complete(t, s, req)
	if a.Content != b.Content {
		t.Fatal("judge not deterministic")
	}
}
