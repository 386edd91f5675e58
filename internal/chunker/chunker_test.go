package chunker

import (
	"strings"
	"testing"
	"testing/quick"

	"uniask/internal/htmlx"
	"uniask/internal/textproc"
)

func repeatSentence(s string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = s
	}
	return strings.Join(parts, " ")
}

func TestRecursiveSplitterSmallTextSingleChunk(t *testing.T) {
	r := &RecursiveSplitter{MaxTokens: 100}
	chunks := r.Split("testo breve di prova")
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	if chunks[0].Text != "testo breve di prova" {
		t.Fatalf("chunk = %q", chunks[0].Text)
	}
}

func TestRecursiveSplitterRespectsLimit(t *testing.T) {
	r := &RecursiveSplitter{MaxTokens: 40}
	text := repeatSentence("Il bonifico estero richiede una autorizzazione preventiva.\n", 30)
	chunks := r.Split(text)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	for i, c := range chunks {
		if n := textproc.ApproxTokens(c.Text); n > 40 {
			t.Errorf("chunk %d has %d tokens > limit 40", i, n)
		}
		if c.Ordinal != i {
			t.Errorf("chunk %d ordinal = %d", i, c.Ordinal)
		}
	}
}

func TestRecursiveSplitterNoTextLost(t *testing.T) {
	r := &RecursiveSplitter{MaxTokens: 30}
	text := repeatSentence("parola chiave numero uno due tre.\n", 20)
	var got int
	for _, c := range r.Split(text) {
		got += strings.Count(c.Text, "chiave")
	}
	if want := 20; got != want {
		t.Fatalf("lost content: %d occurrences, want %d", got, want)
	}
}

func TestRecursiveSplitterHardSplitLongWordRun(t *testing.T) {
	r := &RecursiveSplitter{MaxTokens: 10}
	text := strings.Repeat("x", 500) // no separators at all
	chunks := r.Split(text)
	if len(chunks) < 2 {
		t.Fatalf("expected hard split, got %d chunks", len(chunks))
	}
	var total int
	for _, c := range chunks {
		total += len(c.Text)
	}
	if total != 500 {
		t.Fatalf("hard split lost bytes: %d", total)
	}
}

const chunkHTML = `<html><head><title>Procedura bonifico estero</title></head><body>
<h1>Bonifico estero</h1>
<p>Il bonifico verso paesi extra SEPA richiede il codice BIC della banca beneficiaria.</p>
<p>La commissione applicata dipende dal paese di destinazione e dalla divisa.</p>
<h2>Errori frequenti</h2>
<p>In caso di errore ERR-2041 verificare il codice IBAN inserito.</p>
<p>In caso di errore ERR-2042 contattare il supporto operativo.</p>
</body></html>`

func TestHTMLSplitterCoherentChunks(t *testing.T) {
	h := &HTMLSplitter{TargetTokens: 60}
	chunks := h.SplitDocument(htmlx.Extract(chunkHTML))
	if len(chunks) == 0 {
		t.Fatal("no chunks")
	}
	joined := ""
	for _, c := range chunks {
		joined += c.Text + "\n"
	}
	for _, want := range []string{"BIC", "ERR-2041", "ERR-2042", "commissione"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chunks lost %q", want)
		}
	}
}

func TestHTMLSplitterHeadingGluedToBody(t *testing.T) {
	h := &HTMLSplitter{TargetTokens: 25}
	chunks := h.SplitDocument(htmlx.Extract(chunkHTML))
	// No chunk should consist solely of a heading when body text follows.
	for _, c := range chunks {
		if c.Text == "Bonifico estero" || c.Text == "Errori frequenti" {
			t.Errorf("dangling heading chunk: %q", c.Text)
		}
	}
}

func TestHTMLSplitterMergesSmallParagraphs(t *testing.T) {
	h := &HTMLSplitter{TargetTokens: 512}
	chunks := h.SplitDocument(htmlx.Extract(chunkHTML))
	if len(chunks) != 1 {
		t.Fatalf("small doc should merge to 1 chunk, got %d", len(chunks))
	}
}

func TestHTMLSplitterRespectsTarget(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < 40; i++ {
		b.WriteString("<p>La procedura operativa per la gestione della richiesta prevede numerosi passaggi autorizzativi interni.</p>")
	}
	b.WriteString("</body></html>")
	h := &HTMLSplitter{TargetTokens: 64}
	chunks := h.SplitDocument(htmlx.Extract(b.String()))
	if len(chunks) < 4 {
		t.Fatalf("expected several chunks, got %d", len(chunks))
	}
	for i, c := range chunks {
		if n := textproc.ApproxTokens(c.Text); n > 64 {
			t.Errorf("chunk %d exceeds target: %d tokens", i, n)
		}
	}
}

func TestHTMLSplitterOversizedSingleParagraph(t *testing.T) {
	text := repeatSentence("Frase ripetuta della procedura interna di verifica.", 80)
	doc := "<html><body><p>" + text + "</p></body></html>"
	h := &HTMLSplitter{TargetTokens: 50}
	chunks := h.SplitDocument(htmlx.Extract(doc))
	if len(chunks) < 2 {
		t.Fatalf("oversized paragraph not split: %d chunks", len(chunks))
	}
	for _, c := range chunks {
		if n := textproc.ApproxTokens(c.Text); n > 50 {
			t.Errorf("chunk exceeds target after sentence split: %d", n)
		}
	}
}

func TestApproxTokens(t *testing.T) {
	if got := textproc.ApproxTokens(""); got != 0 {
		t.Fatalf("ApproxTokens(\"\") = %d", got)
	}
	if got := textproc.ApproxTokens("ciao"); got != 1 {
		t.Fatalf("ApproxTokens(ciao) = %d", got)
	}
	long := strings.Repeat("parola ", 100)
	if got := textproc.ApproxTokens(long); got < 100 || got > 250 {
		t.Fatalf("ApproxTokens(100 words) = %d, want ~100-250", got)
	}
}

// Property: chunk ordinals are dense.
func TestChunkOrdinalsProperty(t *testing.T) {
	h := &HTMLSplitter{TargetTokens: 32}
	f := func(texts []string) bool {
		var doc htmlx.Document
		for _, text := range texts {
			doc.Paragraphs = append(doc.Paragraphs, htmlx.Paragraph{Text: text})
		}
		chunks := h.SplitDocument(doc)
		for i, c := range chunks {
			if c.Ordinal != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: recursive splitter never produces empty chunks.
func TestRecursiveNoEmptyChunksProperty(t *testing.T) {
	r := &RecursiveSplitter{MaxTokens: 16}
	f := func(s string) bool {
		for _, c := range r.Split(s) {
			if strings.TrimSpace(c.Text) == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
