package rouge

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"uniask/internal/chunker"
	"uniask/internal/kb"
)

// oracleTokenize is tokenize as it was: every token built rune by rune
// through a strings.Builder.
func oracleTokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// oracleMaxLAgainst is MaxLAgainst as it was: ROUGE-L against each
// reference from scratch, the candidate tokenized again every time.
func oracleMaxLAgainst(candidate string, references []string) float64 {
	best := 0.0
	for _, ref := range references {
		c, r := oracleTokenize(candidate), oracleTokenize(ref)
		if len(c) == 0 || len(r) == 0 {
			continue
		}
		lcs := float64(lcsLength(c, r))
		p := lcs / float64(len(c))
		rec := lcs / float64(len(r))
		if s := f1(p, rec); s > best {
			best = s
		}
	}
	return best
}

// TestTokenizeAndMaxLMatchOracle checks, over chunks of the 600-page
// benchmark corpus, that tokenize yields the oracle's tokens and that
// MaxLAgainst's F1 is bit-identical to the oracle's, for answer-like
// candidates against each page's chunks and its neighbour's.
func TestTokenizeAndMaxLMatchOracle(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 600, Seed: 1})
	splitter := &chunker.HTMLSplitter{}
	chunks := make([][]string, len(corpus.Docs))
	for i, d := range corpus.Docs {
		for _, c := range splitter.SplitHTML(d.HTML) {
			chunks[i] = append(chunks[i], c.Text)
		}
	}
	odd := []string{"", "ÀÉ Città", "a\xffb \xe2\x80", "ERR-4032 v2.3", "İstanbul ǅ"}
	for i, d := range corpus.Docs {
		for _, text := range append(append([]string{d.Title, d.AnswerSentence}, chunks[i]...), odd...) {
			if got, want := tokenize(text), oracleTokenize(text); !reflect.DeepEqual(got, want) {
				t.Fatalf("tokenize(%q) = %q, oracle %q", text, got, want)
			}
		}
		if i >= 200 {
			continue
		}
		refs := append(append([]string(nil), chunks[i]...), chunks[(i+1)%len(chunks)]...)
		for _, cand := range []string{d.AnswerSentence, d.Title + ". " + d.AnswerSentence, d.Paragraphs[0]} {
			got, want := MaxLAgainst(cand, refs), oracleMaxLAgainst(cand, refs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MaxLAgainst(%q) = %v, oracle %v", d.ID, cand, got, want)
			}
		}
	}
}
