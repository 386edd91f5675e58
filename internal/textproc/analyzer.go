package textproc

// Analyzer composes the full analysis pipeline applied to both indexed
// fields and queries: tokenize -> strip elision -> lowercase -> fold
// diacritics -> drop stop words -> stem. Raw turns every stage but
// tokenizing and lower-casing off, which the baseline engine
// (internal/experiments/baseline) uses to reproduce the previous system's
// raw exact matching.
type Analyzer struct {
	// raw keeps stop words and skips elision stripping, folding and
	// stemming.
	raw bool
}

// ItalianFull returns the analyzer configuration equivalent to Lucene's
// it-analyzer-lucene-full: all stages enabled.
func ItalianFull() *Analyzer { return &Analyzer{} }

// Raw returns an analyzer that only tokenizes and lower-cases, used by the
// previous-generation keyword engine.
func Raw() *Analyzer { return &Analyzer{raw: true} }

// nextTerm returns the first normalized term of the tokens at or after
// byte offset i, and the offset to resume from; ok is false once the text
// holds no further term. It is the one token walk AnalyzeTerms and
// AnalyzeUnique share: it reads text in place and builds no token slice.
func (a *Analyzer) nextTerm(text string, i int) (term string, next int, ok bool) {
	for {
		start, end := nextToken(text, i)
		if start == end {
			return "", end, false
		}
		if term, ok := a.normalizeTerm(text[start:end]); ok {
			return term, end, true
		}
		i = end
	}
}

// normalizeTerm runs one token through strip-elision -> lowercase -> fold ->
// stop-word check -> stem; ok is false when the token is dropped.
func (a *Analyzer) normalizeTerm(term string) (_ string, ok bool) {
	if a.raw {
		term = Lowercase(term)
		return term, term != ""
	}
	term = FoldDiacritics(Lowercase(StripElision(term)))
	if term == "" || IsStopword(term) {
		return "", false
	}
	term = StemItalian(term)
	return term, term != ""
}

// AnalyzeTerms returns the normalized terms in order. It is the query hot
// path's entry point.
func (a *Analyzer) AnalyzeTerms(text string) []string {
	terms := make([]string, 0, len(text)/8+1)
	for term, i, ok := a.nextTerm(text, 0); ok; term, i, ok = a.nextTerm(text, i) {
		terms = append(terms, term)
	}
	return terms
}

// AnalyzeUnique returns the set of distinct normalized terms.
func (a *Analyzer) AnalyzeUnique(text string) map[string]struct{} {
	set := make(map[string]struct{})
	for term, i, ok := a.nextTerm(text, 0); ok; term, i, ok = a.nextTerm(text, i) {
		set[term] = struct{}{}
	}
	return set
}
