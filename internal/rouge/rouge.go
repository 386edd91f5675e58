// Package rouge implements the ROUGE family of summary-evaluation metrics
// (Lin, 2004). UniAsk's primary guardrail scores a generated answer against
// each retrieved context chunk with ROUGE-L and blocks the answer when the
// best score falls below a threshold (0.15 in the deployment).
package rouge

import (
	"strings"
	"unicode"
)

// Score holds precision, recall and F-measure for one ROUGE computation.
type Score struct {
	Precision float64
	Recall    float64
	F1        float64
}

// tokenize lower-cases and splits on non-alphanumeric runes. ROUGE operates
// on raw word overlap; no stemming or stop-word removal is applied, matching
// the reference implementation. Tokens are substrings of the lower-cased
// text: the only allocations are that text and the token slice.
func tokenize(text string) []string {
	lower := strings.ToLower(text)
	var out []string
	start := -1
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

// lcsLength computes the length of the longest common subsequence of a and
// b using the standard two-row dynamic program (O(len(a)·len(b)) time,
// O(min) space).
func lcsLength(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// L computes ROUGE-L between a candidate text and a reference text.
func L(candidate, reference string) Score {
	return lTokens(tokenize(candidate), tokenize(reference))
}

// lTokens is ROUGE-L over tokenized texts.
func lTokens(c, r []string) Score {
	if len(c) == 0 || len(r) == 0 {
		return Score{}
	}
	lcs := float64(lcsLength(c, r))
	p := lcs / float64(len(c))
	rec := lcs / float64(len(r))
	return Score{Precision: p, Recall: rec, F1: f1(p, rec)}
}

// N computes ROUGE-N (n-gram overlap) between candidate and reference.
func N(n int, candidate, reference string) Score {
	if n < 1 {
		n = 1
	}
	c := ngrams(tokenize(candidate), n)
	r := ngrams(tokenize(reference), n)
	if len(c) == 0 || len(r) == 0 {
		return Score{}
	}
	refCounts := make(map[string]int, len(r))
	for _, g := range r {
		refCounts[g]++
	}
	match := 0
	for _, g := range c {
		if refCounts[g] > 0 {
			refCounts[g]--
			match++
		}
	}
	p := float64(match) / float64(len(c))
	rec := float64(match) / float64(len(r))
	return Score{Precision: p, Recall: rec, F1: f1(p, rec)}
}

func ngrams(tokens []string, n int) []string {
	if len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+n], " "))
	}
	return out
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MaxLAgainst returns the highest ROUGE-L F1 of candidate against any of
// the references — the guardrail's aggregation: the answer is compared to
// every retrieved chunk and the maximum similarity is kept. The candidate
// is tokenized once.
func MaxLAgainst(candidate string, references []string) float64 {
	c := tokenize(candidate)
	best := 0.0
	for _, ref := range references {
		if s := lTokens(c, tokenize(ref)).F1; s > best {
			best = s
		}
	}
	return best
}
