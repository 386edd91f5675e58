// Package textproc implements the text-analysis pipeline UniAsk uses for
// full-text search over Italian documents. It mirrors the stages of the
// Lucene Italian analyzer the paper relies on (it-analyzer-lucene-full):
// tokenization, elision removal, lower-casing, stop-word removal and light
// stemming, plus a sentence splitter used by chunking and answer generation.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// isTokenRune reports whether r can appear inside a token. Letters and
// digits always can; a small set of connector punctuation is admitted so
// domain codes such as "ERR-4032", "PROC_118" or "v2.3" survive as single
// tokens, matching how enterprise search engines index jargon identifiers.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// asciiToken is isTokenRune for the ASCII runes: the letters and digits.
var asciiToken = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isTokenRune(rune(c))
	}
	return t
}()

// isConnector reports whether c may join two token runs (it must be
// surrounded by token runes on both sides to be kept). Every connector is
// ASCII, so a byte that starts a multi-byte rune never is one.
func isConnector(c byte) bool {
	switch c {
	case '-', '_', '.', '/':
		return true
	}
	return false
}

// tokenRuneAt decodes the rune starting at byte offset i of text and
// reports whether it is a token rune, and its width in bytes. An invalid
// byte decodes to utf8.RuneError with width 1 (not a token rune), so
// offsets stay anchored to the input byte for byte.
func tokenRuneAt(text string, i int) (bool, int) {
	if c := text[i]; c < utf8.RuneSelf {
		return asciiToken[c], 1
	}
	r, w := utf8.DecodeRuneInString(text[i:])
	return isTokenRune(r), w
}

// nextToken returns the byte span [start, end) of the first token at or
// after byte offset i; start == end == len(text) when none is left. A
// connector is kept only when a token rune follows it.
func nextToken(text string, i int) (start, end int) {
	for i < len(text) {
		ok, w := tokenRuneAt(text, i)
		if ok {
			break
		}
		i += w
	}
	start = i
	for i < len(text) {
		if ok, w := tokenRuneAt(text, i); ok {
			i += w
			continue
		}
		if isConnector(text[i]) && i+1 < len(text) {
			if ok, w := tokenRuneAt(text, i+1); ok {
				i += 1 + w
				continue
			}
		}
		break
	}
	return start, i
}

// StripElision removes Italian elided articles and prepositions from the
// front of a token: "l'ufficio" -> "ufficio", "dell'operazione" ->
// "operazione". Lucene's Italian analyzer applies the same filter before
// stemming.
func StripElision(term string) string {
	idx := apostrophe(term)
	if idx <= 0 || idx == len(term)-1 {
		return term
	}
	prefix := strings.ToLower(term[:idx])
	switch prefix {
	case "c", "l", "all", "dall", "dell", "nell", "sull", "coll", "pell",
		"gl", "agl", "dagl", "degl", "negl", "sugl", "un", "m", "t", "s", "v", "d", "quell", "quest", "sant", "senz", "tutt":
		rest := term[idx:]
		// Skip the apostrophe rune (ASCII ' is 1 byte, ’ is 3 bytes).
		if strings.HasPrefix(rest, "'") {
			return rest[1:]
		}
		return rest[len("’"):]
	}
	return term
}

// apostrophe returns the byte offset of the first ASCII (') or typographic
// (’, U+2019) apostrophe in term, or -1. Neither byte sequence can start
// inside another rune, so a byte scan finds what a rune scan would.
func apostrophe(term string) int {
	for i := 0; i < len(term); i++ {
		switch term[i] {
		case '\'':
			return i
		case 0xE2:
			if strings.HasPrefix(term[i+1:], "\x80\x99") {
				return i
			}
		}
	}
	return -1
}

// Lowercase normalizes a term to lower case, Unicode-aware.
func Lowercase(term string) string { return strings.ToLower(term) }

// FoldDiacritics maps common Italian accented vowels onto their base form,
// so "perché" and "perche" match. Enterprise queries are typed quickly and
// frequently omit accents. Pure-ASCII terms (the vast majority) are
// returned unchanged without allocating.
func FoldDiacritics(term string) string {
	ascii := true
	for i := 0; i < len(term); i++ {
		if term[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		return term
	}
	var b strings.Builder
	b.Grow(len(term))
	for _, r := range term {
		switch r {
		case 'à', 'á', 'â', 'ä':
			b.WriteRune('a')
		case 'è', 'é', 'ê', 'ë':
			b.WriteRune('e')
		case 'ì', 'í', 'î', 'ï':
			b.WriteRune('i')
		case 'ò', 'ó', 'ô', 'ö':
			b.WriteRune('o')
		case 'ù', 'ú', 'û', 'ü':
			b.WriteRune('u')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
