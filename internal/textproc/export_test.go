package textproc

// Token is a single lexical unit produced by the tokenizer, annotated with
// its byte offsets in the original text so callers can map analysis results
// back to source spans.
type Token struct {
	// Text is the token surface form (not normalized).
	Text string
	// Start and End are byte offsets of the token in the input.
	Start, End int
	// Position is the token's ordinal position in the token stream.
	Position int
}

// Tokenize splits text into tokens. It is Unicode-aware and keeps
// identifier-style tokens (error codes, procedure codes, versions) intact
// when letters/digits are joined by -, _, . or /. Token texts are
// substrings of the input (no per-token copy), so they share its memory.
// The text is walked in place twice, once to count the tokens and once to
// fill a slice of exactly that length: the result is the only allocation.
func Tokenize(text string) []Token {
	n := 0
	for i := 0; ; n++ {
		start, end := nextToken(text, i)
		if start == end {
			break
		}
		i = end
	}
	tokens := make([]Token, n)
	i := 0
	for pos := range tokens {
		start, end := nextToken(text, i)
		tokens[pos] = Token{Text: text[start:end], Start: start, End: end, Position: pos}
		i = end
	}
	return tokens
}
