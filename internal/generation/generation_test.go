package generation

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uniask/internal/llm"
)

var chunks = []RetrievedChunk{
	{ID: "kb00001#0", Title: "Blocco carta di credito",
		Content: "Per bloccare la carta di credito è necessario chiamare il numero verde."},
	{ID: "kb00002#1", Title: "Bonifico estero",
		Content: "Il bonifico verso paesi extra SEPA richiede il codice BIC."},
}

func TestGenerateGroundedAnswer(t *testing.T) {
	g := &Generator{Client: llm.NewSim(llm.DefaultBehavior())}
	ans, err := g.GenerateStream(context.Background(), "Come posso bloccare la carta di credito?", chunks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Citations) == 0 {
		t.Fatalf("no citations resolved: %+v", ans)
	}
	if ans.Citations[0] != "kb00001#0" {
		t.Fatalf("citation resolved to %v", ans.Citations)
	}
	if !strings.Contains(ans.Text, "numero verde") {
		t.Fatalf("answer not grounded: %q", ans.Text)
	}
}

func TestGenerateCapsContextToM(t *testing.T) {
	var captured llm.Request
	g := &Generator{Client: clientFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		captured = req
		return llm.Response{Content: "ok [doc1]"}, nil
	})}
	var many []RetrievedChunk
	for len(many) <= DefaultM {
		many = append(many, chunks...)
	}
	if _, err := g.GenerateStream(context.Background(), "q", many, nil); err != nil {
		t.Fatal(err)
	}
	// Only doc1 .. docM should be in the prompt.
	joined := ""
	for _, m := range captured.Messages {
		joined += m.Content
	}
	if !strings.Contains(joined, fmt.Sprintf("doc%d", DefaultM)) || strings.Contains(joined, fmt.Sprintf("doc%d", DefaultM+1)) {
		t.Fatalf("prompt does not hold exactly DefaultM chunks")
	}
}

func TestGenerateErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	g := &Generator{Client: clientFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{}, boom
	})}
	_, err := g.GenerateStream(context.Background(), "q", chunks, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateEmptyChunks(t *testing.T) {
	g := &Generator{Client: llm.NewSim(llm.DefaultBehavior())}
	ans, err := g.GenerateStream(context.Background(), "Come posso bloccare la carta?", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Citations) != 0 {
		t.Fatalf("citations from empty context: %v", ans.Citations)
	}
}

// clientFunc adapts a function to llm.Client.
type clientFunc func(context.Context, llm.Request) (llm.Response, error)

func (f clientFunc) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return f(ctx, req)
}

func TestExtractCitationKeys(t *testing.T) {
	cases := map[string][]string{
		"Risposta [doc1]. Altra frase [doc2].":    {"doc1", "doc2"},
		"Ripetuta [doc1] e ancora [doc1].":        {"doc1"},
		"Niente citazioni qui.":                   nil,
		"Parentesi [non valida] e [doc3] valida.": {"doc3"},
		"[1] solo numero e [abc] solo lettere":    nil,
		"Chiusura mancante [doc1":                 nil,
		"":                                        nil,
		"[doc1][doc2][doc10]":                     {"doc1", "doc2", "doc10"},
	}
	for in, want := range cases {
		if got := ExtractCitationKeys(in); !reflect.DeepEqual(got, want) {
			t.Errorf("ExtractCitationKeys(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestIsCitationKey(t *testing.T) {
	valid := []string{"doc1", "doc10", "kb0042"}
	invalid := []string{"", "doc", "123", "doc 1", "doc-1", strings.Repeat("a", 40) + "1"}
	for _, k := range valid {
		if !isCitationKey(k) {
			t.Errorf("isCitationKey(%q) = false", k)
		}
	}
	for _, k := range invalid {
		if isCitationKey(k) {
			t.Errorf("isCitationKey(%q) = true", k)
		}
	}
}

func TestCitationsOnlyResolveKnownKeys(t *testing.T) {
	g := &Generator{Client: clientFunc(func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Content: "frase [doc1] e chiave inventata [doc9]"}, nil
	})}
	ans, err := g.GenerateStream(context.Background(), "q", chunks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Citations) != 1 || ans.Citations[0] != "kb00001#0" {
		t.Fatalf("citations = %v", ans.Citations)
	}
}
