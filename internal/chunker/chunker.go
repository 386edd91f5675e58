// Package chunker implements the two document-splitting strategies the
// paper evaluated for index construction: a generic recursive character
// splitter (the Langchain RecursiveCharacterTextSplitter the authors tested
// and rejected) and the ad-hoc HTML-paragraph splitter they adopted, which
// cuts at paragraph start offsets and recursively merges small adjacent
// fragments up to the 512-token target.
package chunker

import (
	"strings"

	"uniask/internal/htmlx"
	"uniask/internal/textproc"
)

// Chunk is one indexable fragment of a document.
type Chunk struct {
	// Text is the chunk content.
	Text string
	// Ordinal is the chunk's position within its document (0-based).
	Ordinal int
}

// DefaultChunkTokens is the chunk-size target from the paper: 512 tokens,
// chosen because text-embedding-ada-002 performs well at that length.
const DefaultChunkTokens = 512

// ---------------------------------------------------------------------------
// Recursive character splitter (Langchain-style).

// RecursiveSplitter reproduces Langchain's RecursiveCharacterTextSplitter:
// it tries each of recursiveSeparators in order, splitting the text and
// recursively re-splitting any piece that is still too large with the next
// separator.
type RecursiveSplitter struct {
	// MaxTokens is the chunk-size limit (DefaultChunkTokens when zero).
	MaxTokens int
}

// recursiveSeparators is Langchain's default separator list, coarsest first.
var recursiveSeparators = []string{"\n\n", "\n", " ", ""}

func (r *RecursiveSplitter) maxTokens() int {
	if r.MaxTokens > 0 {
		return r.MaxTokens
	}
	return DefaultChunkTokens
}

// Split chunks text with the recursive strategy.
func (r *RecursiveSplitter) Split(text string) []Chunk {
	pieces := r.split(text, recursiveSeparators)
	// Greedily merge adjacent pieces below the limit, mimicking Langchain's
	// merge step.
	var out []Chunk
	cur := ""
	flush := func() {
		if cur == "" {
			return
		}
		out = append(out, Chunk{Text: cur, Ordinal: len(out)})
		cur = ""
	}
	for _, p := range pieces {
		if p == "" {
			continue
		}
		joined := p
		if cur != "" {
			joined = cur + " " + p
		}
		if textproc.ApproxTokens(joined) > r.maxTokens() && cur != "" {
			flush()
			cur = p
		} else {
			cur = joined
		}
	}
	flush()
	return out
}

func (r *RecursiveSplitter) split(text string, seps []string) []string {
	if textproc.ApproxTokens(text) <= r.maxTokens() {
		return []string{text}
	}
	if len(seps) == 0 {
		return hardSplit(text, r.maxTokens())
	}
	sep := seps[0]
	if sep == "" {
		return hardSplit(text, r.maxTokens())
	}
	parts := splitKeepNonEmpty(text, sep)
	if len(parts) == 1 {
		return r.split(text, seps[1:])
	}
	var out []string
	for _, p := range parts {
		if textproc.ApproxTokens(p) > r.maxTokens() {
			out = append(out, r.split(p, seps[1:])...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

func splitKeepNonEmpty(text, sep string) []string {
	var parts []string
	for _, p := range strings.Split(text, sep) {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// hardSplit cuts text into pieces of at most maxTokens by rune count
// approximation, used when no separator can produce small-enough pieces.
func hardSplit(text string, maxTokens int) []string {
	maxChars := maxTokens * 4
	var out []string
	runes := []rune(text)
	for len(runes) > 0 {
		n := maxChars
		if n > len(runes) {
			n = len(runes)
		}
		out = append(out, string(runes[:n]))
		runes = runes[n:]
	}
	return out
}

// ---------------------------------------------------------------------------
// HTML paragraph splitter (the strategy UniAsk adopted).

// HTMLSplitter extracts non-overlapping chunks from an HTML document using
// the start offsets of HTML paragraphs as splitting points, then recursively
// merges consecutive small chunks until the target length is reached. This
// keeps fragments coherent with the structure the human editors designed.
type HTMLSplitter struct {
	// TargetTokens is the desired chunk length (DefaultChunkTokens if zero).
	TargetTokens int
}

func (h *HTMLSplitter) target() int {
	if h.TargetTokens > 0 {
		return h.TargetTokens
	}
	return DefaultChunkTokens
}

// SplitDocument chunks an already-extracted document.
func (h *HTMLSplitter) SplitDocument(ex htmlx.Document) []Chunk {
	return h.splitParagraphs(ex.Paragraphs)
}

func (h *HTMLSplitter) splitParagraphs(paras []htmlx.Paragraph) []Chunk {
	// First pass: one fragment per paragraph; heading text is glued to the
	// next body paragraph.
	var frags []string
	pendingHeading := ""
	for _, p := range paras {
		if p.Heading {
			if pendingHeading != "" {
				pendingHeading += " — " + p.Text
			} else {
				pendingHeading = p.Text
			}
			continue
		}
		text := p.Text
		if pendingHeading != "" {
			text = pendingHeading + ". " + text
			pendingHeading = ""
		}
		frags = append(frags, text)
	}
	if pendingHeading != "" {
		frags = append(frags, pendingHeading)
	}

	// Recursive merge: repeatedly join the smallest adjacent pair while the
	// merged fragment stays within the target.
	tokens := make([]int, len(frags))
	for i, f := range frags {
		tokens[i] = textproc.ApproxTokens(f)
	}
	for len(frags) > 1 {
		best := -1
		bestSum := 1 << 30
		for i := 0; i+1 < len(frags); i++ {
			sum := tokens[i] + tokens[i+1]
			if sum <= h.target() && sum < bestSum {
				best, bestSum = i, sum
			}
		}
		if best < 0 {
			break
		}
		frags[best] = frags[best] + "\n" + frags[best+1]
		tokens[best] = bestSum
		frags = append(frags[:best+1], frags[best+2:]...)
		tokens = append(tokens[:best+1], tokens[best+2:]...)
	}

	// Any fragment still above target (a single giant paragraph) is split by
	// sentences.
	var out []Chunk
	for _, f := range frags {
		pieces := []string{f}
		if textproc.ApproxTokens(f) > h.target() {
			pieces = h.splitOversized(f)
		}
		for _, piece := range pieces {
			out = append(out, Chunk{Text: piece, Ordinal: len(out)})
		}
	}
	return out
}

func (h *HTMLSplitter) splitOversized(text string) []string {
	sentences := textproc.SplitSentences(text)
	if len(sentences) <= 1 {
		return hardSplit(text, h.target())
	}
	var out []string
	cur := ""
	for _, s := range sentences {
		joined := s
		if cur != "" {
			joined = cur + " " + s
		}
		if textproc.ApproxTokens(joined) > h.target() && cur != "" {
			out = append(out, cur)
			cur = s
		} else {
			cur = joined
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
