package guardrails

import "strings"

// ContentFilter is the rule-based substitute for the Azure OpenAI Content
// Filter: it blocks questions containing terms from the harm-category
// lexicons (hate, violence, self-harm, sexual, profanity). A production
// filter is a classifier; a lexicon preserves the pipeline behavior the
// experiments measure — a small fraction of user questions is blocked
// before reaching the model.
type ContentFilter struct {
	lexicon map[string]bool
}

// NewContentFilter builds the default Italian lexicon.
func NewContentFilter() *ContentFilter {
	f := &ContentFilter{lexicon: make(map[string]bool)}
	for _, terms := range [][]string{
		{"maledetto", "maledetta", "dannato", "dannata", "schifoso", "schifosa", "idiota", "cretino", "stupido"}, // profanity
		{"uccidere", "ammazzare", "sparare", "accoltellare", "aggredire", "picchiare"},                           // violence
		{"suicidio", "suicidarmi", "farmi del male", "autolesionismo"},                                           // self-harm
		{"razzista", "discriminare gli stranieri"},                                                               // hate
	} {
		for _, t := range terms {
			f.lexicon[t] = true
		}
	}
	return f
}

// Blocked reports whether text contains a term of a harm-category lexicon.
func (f *ContentFilter) Blocked(text string) bool {
	lower := strings.ToLower(text)
	words := strings.FieldsFunc(lower, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == 'à' || r == 'è' || r == 'é' || r == 'ì' || r == 'ò' || r == 'ù' || r == ' ')
	})
	joined := strings.Join(words, " ")
	for _, w := range strings.Fields(joined) {
		if f.lexicon[w] {
			return true
		}
	}
	// Multi-word entries.
	for term := range f.lexicon {
		if strings.Contains(term, " ") && strings.Contains(joined, term) {
			return true
		}
	}
	return false
}
