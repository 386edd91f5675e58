package textproc

// The oracle: the analyzer as it was before the in-place token walk, the
// bucketed stemmer table and the byte-scanning elision check, kept
// verbatim. FuzzTokenize, FuzzAnalyze and the corpus replay in
// corpus_test.go require today's analyzer to produce exactly what
// the oracle does: the same tokens, offsets, positions and terms.

import (
	"fmt"
	"reflect"
	"strings"
	"unicode"
)

// oracleIsTokenRune and oracleIsConnector are the rune classes the oracle
// tokenizer scanned with.
func oracleIsTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func oracleIsConnector(r rune) bool {
	switch r {
	case '-', '_', '.', '/':
		return true
	}
	return false
}

// oracleTokenize is the tokenizer that decoded the whole text into a
// []rune plus a []int of byte offsets before scanning it.
func oracleTokenize(text string) []Token {
	tokens := make([]Token, 0, len(text)/8+1)
	runes := make([]rune, 0, len(text))
	byteOff := make([]int, 0, len(text)+1)
	for i, r := range text {
		byteOff = append(byteOff, i)
		runes = append(runes, r)
	}
	byteOff = append(byteOff, len(text))

	pos := 0
	i := 0
	for i < len(runes) {
		if !oracleIsTokenRune(runes[i]) {
			i++
			continue
		}
		start := i
		for i < len(runes) {
			if oracleIsTokenRune(runes[i]) {
				i++
				continue
			}
			if oracleIsConnector(runes[i]) && i+1 < len(runes) && oracleIsTokenRune(runes[i+1]) {
				i += 2
				continue
			}
			break
		}
		tokens = append(tokens, Token{
			Text:     text[byteOff[start]:byteOff[i]],
			Start:    byteOff[start],
			End:      byteOff[i],
			Position: pos,
		})
		pos++
	}
	return tokens
}

// oracleStripElision finds the apostrophe with strings.IndexAny.
func oracleStripElision(term string) string {
	idx := strings.IndexAny(term, "'’")
	if idx <= 0 || idx == len(term)-1 {
		return term
	}
	prefix := strings.ToLower(term[:idx])
	switch prefix {
	case "c", "l", "all", "dall", "dell", "nell", "sull", "coll", "pell",
		"gl", "agl", "dagl", "degl", "negl", "sugl", "un", "m", "t", "s", "v", "d", "quell", "quest", "sant", "senz", "tutt":
		rest := term[idx:]
		if strings.HasPrefix(rest, "'") {
			return rest[1:]
		}
		return rest[len("’"):]
	}
	return term
}

// oracleStemItalian builds its rule list on every call and tries every
// suffix in list order.
func oracleStemItalian(term string) string {
	if len(term) < 4 {
		return term
	}
	for _, r := range term {
		if r >= '0' && r <= '9' {
			return term
		}
	}
	t := FoldDiacritics(term)

	type rule struct {
		suffix  string
		minStem int
		replace string
	}
	rules := []rule{
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
		{"ghi", 3, "go"}, {"ghe", 3, "ga"},
		{"chi", 3, "co"}, {"che", 3, "ca"},
	}
	for _, r := range rules {
		if strings.HasSuffix(t, r.suffix) && len(t)-len(r.suffix) >= r.minStem {
			return t[:len(t)-len(r.suffix)] + r.replace
		}
	}

	last := t[len(t)-1]
	switch last {
	case 'o', 'a', 'i', 'e':
		if len(t)-1 >= 3 {
			t = t[:len(t)-1]
			if len(t) >= 4 && t[len(t)-1] == 'i' {
				t = t[:len(t)-1]
			}
		}
	}
	return t
}

// oracleNormalize is normalizeTerm over the oracle's elision check and
// light stemmer.
func oracleNormalize(a *Analyzer, term string) (string, bool) {
	if !a.raw {
		term = oracleStripElision(term)
	}
	term = Lowercase(term)
	if !a.raw {
		term = FoldDiacritics(term)
	}
	if term == "" {
		return "", false
	}
	if !a.raw && IsStopword(term) {
		return "", false
	}
	if !a.raw {
		term = oracleStemItalian(term)
	}
	if term == "" {
		return "", false
	}
	return term, true
}

// oracleAnalyze is AnalyzeTerms over the oracle's token slice.
func oracleAnalyze(a *Analyzer, text string) []string {
	raw := oracleTokenize(text)
	out := make([]string, 0, len(raw))
	for _, tok := range raw {
		if term, ok := oracleNormalize(a, tok.Text); ok {
			out = append(out, term)
		}
	}
	return out
}

// DiffOracle compares every analyzer entry point on text against the
// oracle, for the Italian and the raw analyzer, and describes the first
// difference ("" when there is none). It also checks StripElision and
// StemItalian on every token. Exported for the corpus replay, which lives
// in package textproc_test because it imports the corpus generator.
func DiffOracle(text string) string {
	want := oracleTokenize(text)
	if got := Tokenize(text); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Tokenize(%q) = %+v, oracle %+v", text, got, want)
	}
	for _, tok := range want {
		if got, want := StripElision(tok.Text), oracleStripElision(tok.Text); got != want {
			return fmt.Sprintf("StripElision(%q) = %q, oracle %q", tok.Text, got, want)
		}
		for _, term := range []string{tok.Text, FoldDiacritics(Lowercase(tok.Text))} {
			if got, want := StemItalian(term), oracleStemItalian(term); got != want {
				return fmt.Sprintf("StemItalian(%q) = %q, oracle %q", term, got, want)
			}
		}
	}
	for name, a := range map[string]*Analyzer{"ItalianFull": ItalianFull(), "Raw": Raw()} {
		terms := oracleAnalyze(a, text)
		unique := make(map[string]struct{}, len(terms))
		for _, t := range terms {
			unique[t] = struct{}{}
		}
		if got := a.AnalyzeTerms(text); !reflect.DeepEqual(got, terms) {
			return fmt.Sprintf("%s.AnalyzeTerms(%q) = %q, oracle %q", name, text, got, terms)
		}
		if got := a.AnalyzeUnique(text); !reflect.DeepEqual(got, unique) {
			return fmt.Sprintf("%s.AnalyzeUnique(%q) = %v, oracle %v", name, text, got, unique)
		}
	}
	return ""
}

// OracleAnalyzeUnique is AnalyzeUnique as it was: every term, then a set. Exported for the allocation budget in corpus_test.go.
func OracleAnalyzeUnique(a *Analyzer, text string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range oracleAnalyze(a, text) {
		set[t] = struct{}{}
	}
	return set
}
