package rouge

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIdenticalTexts(t *testing.T) {
	s := rougeL("la carta va bloccata subito", "la carta va bloccata subito")
	if !almost(s, 1) {
		t.Fatalf("identical texts: %v", s)
	}
}

func TestDisjointTexts(t *testing.T) {
	s := rougeL("alfa beta gamma", "uno due tre")
	if s != 0 {
		t.Fatalf("disjoint texts: %v", s)
	}
}

func TestEmptyTexts(t *testing.T) {
	if s := rougeL("", "qualcosa"); s != 0 {
		t.Fatalf("empty candidate: %+v", s)
	}
	if s := rougeL("qualcosa", ""); s != 0 {
		t.Fatalf("empty reference: %+v", s)
	}
	if s := rougeL("", ""); s != 0 {
		t.Fatalf("both empty: %+v", s)
	}
}

func TestKnownLCS(t *testing.T) {
	// candidate: "a b c d", reference: "a c d e" -> LCS = a c d = 3:
	// precision and recall 3/4, so F1 3/4.
	s := rougeL("a b c d", "a c d e")
	if !almost(s, 3.0/4) {
		t.Fatalf("known LCS: %v", s)
	}
}

func TestCaseAndPunctuationInsensitive(t *testing.T) {
	a := rougeL("La Carta, va bloccata!", "la carta va bloccata")
	if !almost(a, 1) {
		t.Fatalf("case/punct: %v", a)
	}
}

func TestSubsequenceNotSubstring(t *testing.T) {
	// LCS respects order but allows gaps.
	s := rougeL("bloccare subito la carta", "bloccare immediatamente la carta di credito")
	// LCS = "bloccare la carta" = 3; |c| = 4, |r| = 6: precision 3/4,
	// recall 1/2, F1 = 2·(3/4)·(1/2)/(5/4) = 3/5.
	if !almost(s, 3.0/5) {
		t.Fatalf("gap LCS: %v", s)
	}
}

func TestOrderMatters(t *testing.T) {
	s := rougeL("carta la bloccare", "bloccare la carta")
	// LCS of reversed trigram is 1 ("la" pivot allows ["carta"]? compute:
	// [carta la bloccare] vs [bloccare la carta] -> LCS length 1 ("la") or
	// single word matches; must be < 3.
	if s >= 0.99 {
		t.Fatalf("order ignored: %v", s)
	}
}

func TestMaxLAgainst(t *testing.T) {
	refs := []string{
		"documento completamente diverso su mutui",
		"la carta va bloccata chiamando il numero verde",
	}
	got := MaxLAgainst("la carta va bloccata subito", refs)
	want := rougeL("la carta va bloccata subito", refs[1])
	if !almost(got, want) {
		t.Fatalf("MaxLAgainst = %v, want %v", got, want)
	}
	if MaxLAgainst("x", nil) != 0 {
		t.Fatal("MaxLAgainst with no refs should be 0")
	}
}

// Property: F1 is within [0,1] and symmetric under swapping for L (since
// precision/recall swap).
func TestRougeLBounds(t *testing.T) {
	f := func(a, b string) bool {
		s := rougeL(a, b)
		if s < 0 || s > 1 {
			return false
		}
		return almost(s, rougeL(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a text always achieves F1 = 1 against itself (when non-empty).
func TestRougeLReflexive(t *testing.T) {
	f := func(words []string) bool {
		text := strings.Join(words, " ")
		if len(tokenize(text)) == 0 {
			return true
		}
		return almost(rougeL(text, text), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRougeL(b *testing.B) {
	cand := strings.Repeat("la procedura di blocco della carta prevede la chiamata al numero verde ", 8)
	ref := strings.Repeat("per bloccare la carta di credito occorre chiamare il servizio clienti dedicato ", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rougeL(cand, ref)
	}
}

// rougeL is the ROUGE-L F1 between a candidate text and a reference text.
func rougeL(candidate, reference string) float64 {
	return lTokens(tokenize(candidate), tokenize(reference))
}
