package guardrails

import "strings"

// ContentFilter is the rule-based substitute for the Azure OpenAI Content
// Filter: it blocks questions containing terms from the harm-category
// lexicons (hate, violence, self-harm, sexual, profanity). A production
// filter is a classifier; a lexicon preserves the pipeline behavior the
// experiments measure — a small fraction of user questions is blocked
// before reaching the model.
type ContentFilter struct {
	lexicon map[string]string // term -> category
}

// NewContentFilter builds the default Italian lexicon.
func NewContentFilter() *ContentFilter {
	f := &ContentFilter{lexicon: make(map[string]string)}
	add := func(category string, terms ...string) {
		for _, t := range terms {
			f.lexicon[t] = category
		}
	}
	add("profanity", "maledetto", "maledetta", "dannato", "dannata", "schifoso", "schifosa", "idiota", "cretino", "stupido")
	add("violence", "uccidere", "ammazzare", "sparare", "accoltellare", "aggredire", "picchiare")
	add("self-harm", "suicidio", "suicidarmi", "farmi del male", "autolesionismo")
	add("hate", "razzista", "discriminare gli stranieri")
	return f
}

// Blocked reports whether text triggers the filter.
func (f *ContentFilter) Blocked(text string) bool {
	_, blocked := f.Category(text)
	return blocked
}

// Category returns the first matching harm category.
func (f *ContentFilter) Category(text string) (string, bool) {
	lower := strings.ToLower(text)
	words := strings.FieldsFunc(lower, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == 'à' || r == 'è' || r == 'é' || r == 'ì' || r == 'ò' || r == 'ù' || r == ' ')
	})
	joined := strings.Join(words, " ")
	for _, w := range strings.Fields(joined) {
		if cat, ok := f.lexicon[w]; ok {
			return cat, true
		}
	}
	// Multi-word entries.
	for term, cat := range f.lexicon {
		if strings.Contains(term, " ") && strings.Contains(joined, term) {
			return cat, true
		}
	}
	return "", false
}
