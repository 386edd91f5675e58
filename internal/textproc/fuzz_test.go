package textproc

// Native fuzz targets for the tokenizer and analyzer (run via
// `make fuzz-short`), plus the checked-in crasher corpus as permanent
// regression cases. The invariants fuzzed here are the contracts chunking
// and indexing rely on: token offsets address the input, positions are
// strictly increasing, token text matches its span, and analysis never
// panics on arbitrary UTF-8 or invalid bytes. Both targets also require
// the analyzer to agree exactly with the oracle in oracle_test.go.

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// crashers holds inputs that broke (or nearly broke) earlier
// implementations; they are replayed by both the fuzz targets (as seed
// corpus) and the plain test below, so regressions fail even without -fuzz.
var crashers = []string{
	"",
	" ",
	"-",
	"...",
	"-_./",
	"a-",
	"-a",
	"a-b-",
	"ERR-4032",
	"PROC_118",
	"v2.3",
	"a..b",
	"à",
	"l'iban",
	"dell'IBAN",
	"\xff\xfe",                      // invalid UTF-8
	"a\xffb",                        // invalid byte inside a word
	"é\x80",                         // truncated multi-byte rune
	"à̀",                            // combining diacritics
	"𝒜𝓃𝒸𝒽",                          // astral-plane letters
	"ᏣᎳᎩ",                           // non-Latin letters
	"1/2.3-4_5",                     // connector soup
	"card--number",                  // doubled connector must split
	strings.Repeat("a-", 500) + "a", // long identifier chain
}

// oracleSeeds aim at the paths the oracle comparison guards: the
// typographic apostrophe and its fragments, accented and quoted stemmer
// suffixes, a connector before a multi-byte letter, and an invalid byte
// between token runes.
var oracleSeeds = []string{
	"l’iban",
	"dell’",
	"\xe2\x80l’a",
	"\xe2\x80\x99a",
	"Città qualità ita'",
	"L'AZIONE dell'Operazione",
	"ERR-à v2.é",
	"carte\x80ità",
}

func checkTokens(t *testing.T, text string, tokens []Token) {
	t.Helper()
	lastPos := -1
	lastEnd := 0
	for _, tok := range tokens {
		if tok.Start < 0 || tok.End > len(text) || tok.Start >= tok.End {
			t.Fatalf("token %+v out of bounds for %q", tok, text)
		}
		if tok.Start < lastEnd {
			t.Fatalf("token %+v overlaps previous (end %d) in %q", tok, lastEnd, text)
		}
		lastEnd = tok.End
		if text[tok.Start:tok.End] != tok.Text {
			t.Fatalf("token text %q != span %q in %q", tok.Text, text[tok.Start:tok.End], text)
		}
		if tok.Position <= lastPos {
			t.Fatalf("positions not increasing: %d after %d in %q", tok.Position, lastPos, text)
		}
		lastPos = tok.Position
	}
}

func FuzzTokenize(f *testing.F) {
	for _, c := range append(crashers, oracleSeeds...) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tokens := Tokenize(text)
		checkTokens(t, text, tokens)
		if want := oracleTokenize(text); !reflect.DeepEqual(tokens, want) {
			t.Fatalf("Tokenize(%q) = %+v, oracle %+v", text, tokens, want)
		}
	})
}

func FuzzAnalyze(f *testing.F) {
	for _, c := range append(crashers, oracleSeeds...) {
		f.Add(c)
	}
	it := ItalianFull()
	en := EnglishFull()
	raw := Raw()
	f.Fuzz(func(t *testing.T, text string) {
		for _, a := range []*Analyzer{it, en, raw} {
			for _, tok := range a.Analyze(text) {
				if tok.Term == "" {
					t.Fatalf("analyzer emitted empty term for %q", text)
				}
				if !utf8.ValidString(tok.Term) && utf8.ValidString(text) {
					t.Fatalf("analyzer broke UTF-8: %q from %q", tok.Term, text)
				}
			}
			// AnalyzeTerms/AnalyzeUnique must agree with Analyze on term count.
			if got, want := len(a.AnalyzeTerms(text)), len(a.Analyze(text)); got != want {
				t.Fatalf("AnalyzeTerms len %d != Analyze len %d for %q", got, want, text)
			}
		}
		if diff := DiffOracle(text); diff != "" {
			t.Fatal(diff)
		}
		if got, want := StripElision(text), oracleStripElision(text); got != want {
			t.Fatalf("StripElision(%q) = %q, oracle %q", text, got, want)
		}
		if got, want := StemItalian(text), oracleStemItalian(text); got != want {
			t.Fatalf("StemItalian(%q) = %q, oracle %q", text, got, want)
		}
	})
}

// TestCrasherCorpus replays the corpus through all entry points without
// -fuzz, so the regression protection runs on every plain `go test`.
func TestCrasherCorpus(t *testing.T) {
	it := ItalianFull()
	for _, c := range crashers {
		checkTokens(t, c, Tokenize(c))
		it.Analyze(c)
		it.AnalyzeUnique(c)
		SplitSentences(c)
	}
}
