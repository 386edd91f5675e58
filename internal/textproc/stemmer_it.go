package textproc

import "strings"

// StemItalian applies a light Italian stemmer in the spirit of Lucene's
// ItalianLightStemmer: it conflates plural/gender inflections and the most
// common verb endings without attempting the full Snowball algorithm. Light
// stemming is what enterprise search configurations typically use, because
// aggressive stemming over jargon-heavy corpora causes false conflations.
//
// The input is expected to be lower-cased. Terms containing digits are
// returned untouched: identifiers such as "err-4032" must never be stemmed.
func StemItalian(term string) string {
	if len(term) < 4 {
		return term
	}
	for i := 0; i < len(term); i++ {
		if '0' <= term[i] && term[i] <= '9' {
			return term
		}
	}
	t := FoldDiacritics(term)

	for _, r := range stemRulesByLastByte[t[len(t)-1]] {
		if strings.HasSuffix(t, r.suffix) && len(t)-len(r.suffix) >= r.minStem {
			return t[:len(t)-len(r.suffix)] + r.replace
		}
	}

	// Final vowel normalization: conti/conto/conta/conte -> cont, matching
	// the Lucene light stemmer's final step.
	last := t[len(t)-1]
	switch last {
	case 'o', 'a', 'i', 'e':
		if len(t)-1 >= 3 {
			t = t[:len(t)-1]
			// Collapse doubled-consonant + i plurals like "uffici" already
			// handled by vowel drop; also drop a residual trailing "i" from
			// "-ii".
			if len(t) >= 4 && t[len(t)-1] == 'i' {
				t = t[:len(t)-1]
			}
		}
	}
	return t
}

// stemRule strips suffix and appends replace when at least minStem bytes
// of stem remain, so that short roots are not destroyed.
type stemRule struct {
	suffix  string
	minStem int
	replace string
}

// stemRules is the light stemmer's suffix list. Order matters: the first
// matching rule wins, so longer suffixes come first.
var stemRules = []stemRule{
	// Verb endings (infinitive, participle, gerund, common finite forms).
	{"azione", 3, "a"}, {"azioni", 3, "a"},
	{"uzione", 3, "u"}, {"uzioni", 3, "u"},
	{"amento", 3, "a"}, {"amenti", 3, "a"},
	{"imento", 3, "i"}, {"imenti", 3, "i"},
	{"abile", 3, "a"}, {"abili", 3, "a"},
	{"ibile", 3, "i"}, {"ibili", 3, "i"},
	{"mente", 3, ""},
	{"atore", 3, "a"}, {"atori", 3, "a"}, {"atrice", 3, "a"}, {"atrici", 3, "a"},
	{"ando", 3, "a"}, {"endo", 3, "e"},
	{"ato", 3, "a"}, {"ata", 3, "a"}, {"ati", 3, "a"}, {"ate", 3, "a"},
	{"uto", 3, "u"}, {"uta", 3, "u"}, {"uti", 3, "u"}, {"ute", 3, "u"},
	{"ito", 3, "i"}, {"ita", 3, "i"}, {"iti", 3, "i"}, {"ite", 3, "i"},
	{"are", 3, "a"}, {"ere", 3, "e"}, {"ire", 3, "i"},
	{"ità", 3, ""}, {"ita'", 3, ""},
	// Noun/adjective gender & number.
	{"ghi", 3, "go"}, {"ghe", 3, "ga"},
	{"chi", 3, "co"}, {"che", 3, "ca"},
}

// stemRulesByLastByte buckets stemRules by the last byte of their suffix,
// each bucket in list order. Only a rule whose suffix ends in the term's
// last byte can match, so the first match in the term's bucket is the
// first match in the whole list.
var stemRulesByLastByte = func() (b [256][]stemRule) {
	for _, r := range stemRules {
		last := r.suffix[len(r.suffix)-1]
		b[last] = append(b[last], r)
	}
	return b
}()
