package textproc

// Analyzer composes the full analysis pipeline applied to both indexed
// fields and queries: tokenize -> strip elision -> lowercase -> fold
// diacritics -> drop stop words -> stem. Raw turns every stage but
// tokenizing and lower-casing off, which the baseline engine
// (internal/experiments/baseline) uses to reproduce the previous system's
// raw exact matching.
type Analyzer struct {
	// Language selects the stop-word list and stemmer (default Italian,
	// the paper's deployment language).
	Language Language
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

// AnalyzedToken is a normalized term together with the source token it was
// derived from.
type AnalyzedToken struct {
	Term     string
	Source   Token
	Position int
}

// Analyze runs the pipeline over text and returns the surviving normalized
// tokens in order.
func (a *Analyzer) Analyze(text string) []AnalyzedToken {
	out := make([]AnalyzedToken, 0, len(text)/8+1)
	for i, src := 0, 0; ; src++ {
		start, end := nextToken(text, i)
		if start == end {
			return out
		}
		i = end
		if term, ok := a.normalizeTerm(text[start:end]); ok {
			tok := Token{Text: text[start:end], Start: start, End: end, Position: src}
			out = append(out, AnalyzedToken{Term: term, Source: tok, Position: len(out)})
		}
	}
}

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
	if term == "" || a.isStopword(term) {
		return "", false
	}
	term = a.stem(term)
	return term, term != ""
}

// isStopword dispatches on the analyzer language.
func (a *Analyzer) isStopword(term string) bool {
	if a.Language == English {
		return IsEnglishStopword(term)
	}
	return IsStopword(term)
}

// stem dispatches on the analyzer language.
func (a *Analyzer) stem(term string) string {
	if a.Language == English {
		return StemEnglish(term)
	}
	return StemItalian(term)
}

// AnalyzeTerms returns only the normalized term strings. It is the query
// hot path's entry point, so it skips the AnalyzedToken materialization
// Analyze performs.
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
