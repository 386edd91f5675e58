package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	toks := terms("Come posso bloccare la carta di credito?")
	want := []string{"Come", "posso", "bloccare", "la", "carta", "di", "credito"}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("Tokenize = %v, want %v", toks, want)
	}
}

func TestTokenizeKeepsCodes(t *testing.T) {
	cases := map[string][]string{
		"errore ERR-4032 in fase di bonifico": {"errore", "ERR-4032", "in", "fase", "di", "bonifico"},
		"procedura PROC_118 versione v2.3":    {"procedura", "PROC_118", "versione", "v2.3"},
		"percorso app/mobile attivo":          {"percorso", "app/mobile", "attivo"},
		"fine. ERR-1 inizio":                  {"fine", "ERR-1", "inizio"},
	}
	for in, want := range cases {
		if got := terms(in); !reflect.DeepEqual(got, want) {
			t.Errorf("terms(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestTokenizeTrailingConnectorDropped(t *testing.T) {
	got := terms("fine- inizio .")
	want := []string{"fine", "inizio"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "città è bella"
	toks := Tokenize(text)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	for _, tok := range toks {
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: text[%d:%d]=%q, token %q", tok.Start, tok.End, text[tok.Start:tok.End], tok.Text)
		}
	}
	if toks[2].Position != 2 {
		t.Errorf("position = %d, want 2", toks[2].Position)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := Tokenize(" ,;! "); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestStripElision(t *testing.T) {
	cases := map[string]string{
		"l'ufficio":         "ufficio",
		"dell'operazione":   "operazione",
		"all'estero":        "estero",
		"un'applicazione":   "applicazione",
		"nell'area":         "area",
		"carta":             "carta",
		"l'":                "l'",
		"po'":               "po'", // not an elided article
		"quell'interfaccia": "interfaccia",
	}
	for in, want := range cases {
		if got := StripElision(in); got != want {
			t.Errorf("StripElision(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStripElisionUnicodeApostrophe(t *testing.T) {
	if got := StripElision("l’ufficio"); got != "ufficio" {
		t.Fatalf("StripElision(l’ufficio) = %q", got)
	}
}

func TestFoldDiacritics(t *testing.T) {
	if got := FoldDiacritics("perché città è lì"); got != "perche citta e li" {
		t.Fatalf("FoldDiacritics = %q", got)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"il", "la", "di", "che", "per", "sono", "è"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"bonifico", "carta", "errore", "mutuo"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
	if len(italianStopwords) < 200 {
		t.Errorf("stop-word list unexpectedly small: %d", len(italianStopwords))
	}
}

func TestStemItalianConflatesInflections(t *testing.T) {
	groups := [][]string{
		{"conto", "conti"},
		{"carta", "carte"},
		{"bonifico", "bonifici"},
		{"operazione", "operazioni"},
		{"bloccare", "bloccato", "bloccata", "bloccati"},
		{"pagamento", "pagamenti"},
		{"autorizzazione", "autorizzazioni"},
	}
	for _, g := range groups {
		base := StemItalian(g[0])
		for _, w := range g[1:] {
			if got := StemItalian(w); got != base {
				t.Errorf("StemItalian(%q) = %q, want %q (stem of %q)", w, got, base, g[0])
			}
		}
	}
}

func TestStemItalianPreservesCodes(t *testing.T) {
	for _, w := range []string{"err-4032", "proc118", "v2.3", "abi12345"} {
		if got := StemItalian(w); got != w {
			t.Errorf("StemItalian(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemItalianShortWords(t *testing.T) {
	for _, w := range []string{"re", "blu", "qui"} {
		if got := StemItalian(w); got != w {
			t.Errorf("StemItalian(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemItalianNeverEmpty(t *testing.T) {
	f := func(s string) bool {
		w := strings.ToLower(s)
		if w == "" {
			return true
		}
		return len(StemItalian(w)) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzerFullPipeline(t *testing.T) {
	a := ItalianFull()
	terms := a.AnalyzeTerms("Come posso bloccare la carta di credito all'estero?")
	// Stopwords (come, posso, la, di) removed; elision stripped; stems applied.
	joined := strings.Join(terms, " ")
	for _, must := range []string{"blocca", "cart", "credi", "ester"} {
		if !strings.Contains(joined, must) {
			t.Errorf("analyzed terms %v missing stem %q", terms, must)
		}
	}
	for _, mustNot := range []string{"come", "posso", "la ", "di "} {
		if strings.Contains(joined+" ", mustNot+" ") && mustNot != "la" && mustNot != "di" {
			t.Errorf("analyzed terms %v contain stop word %q", terms, mustNot)
		}
	}
}

func TestAnalyzerRawKeepsEverything(t *testing.T) {
	a := Raw()
	terms := a.AnalyzeTerms("La Carta di Credito")
	want := []string{"la", "carta", "di", "credito"}
	if !reflect.DeepEqual(terms, want) {
		t.Fatalf("Raw().AnalyzeTerms = %v, want %v", terms, want)
	}
}

func TestAnalyzeUnique(t *testing.T) {
	a := ItalianFull()
	set := a.AnalyzeUnique("bonifico bonifici bonifico")
	if len(set) != 1 {
		t.Fatalf("AnalyzeUnique = %v, want a single stem", set)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	ss := SplitSentences("Prima frase. Seconda frase! Terza frase?")
	if len(ss) != 3 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
}

func TestSplitSentencesAbbreviationsAndCodes(t *testing.T) {
	text := "Contattare il dott. Rossi per il codice v2.3 della procedura. Fine."
	ss := SplitSentences(text)
	if len(ss) != 2 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
	if !strings.Contains(ss[0], "v2.3") {
		t.Errorf("first sentence lost the code: %q", ss[0])
	}
}

func TestSplitSentencesNewlines(t *testing.T) {
	ss := SplitSentences("riga uno\nriga due\n\nriga tre")
	if len(ss) != 3 {
		t.Fatalf("got %d sentences: %v", len(ss), ss)
	}
}

// TestSplitSentencesOffsets: the sentences are trimmed spans of the text,
// in order.
func TestSplitSentencesOffsets(t *testing.T) {
	text := " Alfa beta.  Gamma delta.\n"
	want := []string{"Alfa beta.", "Gamma delta."}
	got := SplitSentences(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if got := SplitSentences("   "); len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

// Property: tokenization offsets always slice back to the token text.
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: no analyzed term contains whitespace or is empty.
func TestAnalyzerTermShapeProperty(t *testing.T) {
	a := ItalianFull()
	f := func(s string) bool {
		for _, term := range a.AnalyzeTerms(s) {
			if term == "" {
				return false
			}
			for _, r := range term {
				if unicode.IsSpace(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// terms returns the surface forms of text's tokens.
func terms(text string) []string {
	var out []string
	for _, t := range Tokenize(text) {
		out = append(out, t.Text)
	}
	return out
}
