package textproc

import (
	"strings"
	"unicode"
)

// commonAbbreviations holds Italian abbreviations after which a period does
// not terminate a sentence.
var commonAbbreviations = map[string]struct{}{
	"sig": {}, "sigg": {}, "dott": {}, "ing": {}, "art": {}, "n": {},
	"pag": {}, "es": {}, "ecc": {}, "tel": {}, "rif": {}, "cod": {},
	"proc": {}, "dr": {}, "prof": {}, "geom": {}, "rag": {}, "vs": {},
	"ca": {}, "al": {}, "all": {},
}

// SplitSentences splits text into sentences on ., !, ? and newlines, with
// handling for Italian abbreviations, decimal numbers and identifier codes
// (a period inside "v2.3" or "ERR.4032" never splits). Each sentence is
// trimmed of surrounding space.
func SplitSentences(text string) []string {
	var out []string
	start := 0
	i := 0
	flush := func(end int) {
		if seg := strings.TrimSpace(text[start:end]); seg != "" {
			out = append(out, seg)
		}
		start = end
	}
	for i < len(text) {
		c := text[i]
		switch c {
		case '\n':
			// A blank line (paragraph break) always terminates a sentence.
			flush(i)
			start = i + 1
			i++
			continue
		case '!', '?':
			flush(i + 1)
			i++
			continue
		case '.':
			// Not a boundary if surrounded by alphanumerics (decimal or code).
			prevAlnum := i > 0 && isASCIIAlnum(text[i-1])
			nextAlnum := i+1 < len(text) && isASCIIAlnum(text[i+1])
			if prevAlnum && nextAlnum {
				i++
				continue
			}
			// Not a boundary after a known abbreviation.
			if prevAlnum {
				w := lastWord(text[:i])
				if _, ok := commonAbbreviations[strings.ToLower(w)]; ok {
					i++
					continue
				}
			}
			flush(i + 1)
			i++
			continue
		}
		i++
	}
	flush(len(text))
	return out
}

func isASCIIAlnum(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// lastWord returns the trailing run of letters in s.
func lastWord(s string) string {
	end := len(s)
	i := end
	for i > 0 {
		r := rune(s[i-1])
		if r < 0x80 && !unicode.IsLetter(r) {
			break
		}
		i--
	}
	return s[i:end]
}
