// Package rouge implements ROUGE-L, the longest-common-subsequence member
// of the ROUGE summary-evaluation metrics (Lin, 2004). UniAsk's primary
// guardrail scores a generated answer against each retrieved context chunk
// with ROUGE-L and blocks the answer when the best score falls below a
// threshold (0.15 in the deployment).
package rouge

import (
	"strings"
	"unicode"
)

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

// lTokens is the ROUGE-L F-measure over tokenized texts: the harmonic mean
// of the LCS precision (over the candidate) and recall (over the
// reference).
func lTokens(c, r []string) float64 {
	if len(c) == 0 || len(r) == 0 {
		return 0
	}
	lcs := float64(lcsLength(c, r))
	p := lcs / float64(len(c))
	rec := lcs / float64(len(r))
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// MaxLAgainst returns the highest ROUGE-L F1 of candidate against any of
// the references — the guardrail's aggregation: the answer is compared to
// every retrieved chunk and the maximum similarity is kept. The candidate
// is tokenized once.
func MaxLAgainst(candidate string, references []string) float64 {
	c := tokenize(candidate)
	best := 0.0
	for _, ref := range references {
		if s := lTokens(c, tokenize(ref)); s > best {
			best = s
		}
	}
	return best
}
