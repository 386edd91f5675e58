// Package htmlx implements the minimal HTML processing UniAsk's ingestion
// service needs: a tokenizer, entity decoding, and a document extractor that
// yields the title and the paragraph structure of an intranet page. The
// paragraph boundaries it reports are the splitting points the ad-hoc
// chunking strategy of the paper uses.
package htmlx

import (
	"strings"
)

// TokenType classifies an HTML token.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is an opening tag such as <p class="x">.
	StartTagToken
	// EndTagToken is a closing tag such as </p>.
	EndTagToken
	// SelfClosingToken is a self-closed tag such as <br/>.
	SelfClosingToken
	// CommentToken is an HTML comment.
	CommentToken
	// DoctypeToken is a <!DOCTYPE ...> declaration.
	DoctypeToken
)

// HTMLToken is a single token produced by the tokenizer.
type HTMLToken struct {
	Type TokenType
	// Name is the lower-cased tag name (empty for text/comment tokens).
	Name string
	// Data is the raw text for text/comment tokens.
	Data string
	// Attrs holds attribute key/value pairs for tag tokens.
	Attrs map[string]string
}

// Tokenize scans an HTML document into a token stream. It is tolerant of
// malformed markup: an unterminated tag is treated as text, unknown entities
// pass through verbatim.
func Tokenize(doc string) []HTMLToken {
	var tokens []HTMLToken
	i := 0
	n := len(doc)
	for i < n {
		if doc[i] != '<' {
			// Text run up to the next '<'.
			j := strings.IndexByte(doc[i:], '<')
			if j < 0 {
				j = n - i
			}
			tokens = append(tokens, HTMLToken{Type: TextToken, Data: doc[i : i+j]})
			i += j
			continue
		}
		// Comment.
		if strings.HasPrefix(doc[i:], "<!--") {
			end := strings.Index(doc[i+4:], "-->")
			if end < 0 {
				tokens = append(tokens, HTMLToken{Type: CommentToken, Data: doc[i+4:]})
				break
			}
			tokens = append(tokens, HTMLToken{Type: CommentToken, Data: doc[i+4 : i+4+end]})
			i += 4 + end + 3
			continue
		}
		// Doctype or other declaration.
		if strings.HasPrefix(doc[i:], "<!") {
			end := strings.IndexByte(doc[i:], '>')
			if end < 0 {
				break
			}
			tokens = append(tokens, HTMLToken{Type: DoctypeToken, Data: doc[i+2 : i+end]})
			i += end + 1
			continue
		}
		end := strings.IndexByte(doc[i:], '>')
		if end < 0 {
			// Unterminated tag: treat the rest as text.
			tokens = append(tokens, HTMLToken{Type: TextToken, Data: doc[i:]})
			break
		}
		raw := doc[i+1 : i+end]
		tokType := StartTagToken
		if strings.HasPrefix(raw, "/") {
			tokType = EndTagToken
			raw = raw[1:]
		} else if strings.HasSuffix(raw, "/") {
			tokType = SelfClosingToken
			raw = strings.TrimSuffix(raw, "/")
		}
		name, attrs := parseTag(raw)
		if name == "" {
			// "< >" or similar garbage: keep as text.
			tokens = append(tokens, HTMLToken{Type: TextToken, Data: doc[i : i+end+1]})
		} else {
			tokens = append(tokens, HTMLToken{Type: tokType, Name: name, Attrs: attrs})
		}
		i += end + 1

		// Raw-text elements: script and style content is consumed as-is up
		// to the matching end tag and discarded from extraction later.
		if tokType == StartTagToken && (name == "script" || name == "style") {
			closing := "</" + name
			idx := strings.Index(strings.ToLower(doc[i:]), closing)
			if idx < 0 {
				break
			}
			tokens = append(tokens, HTMLToken{Type: TextToken, Data: doc[i : i+idx]})
			i += idx
		}
	}
	return tokens
}

// parseTag splits a raw tag body into name and attributes.
func parseTag(raw string) (string, map[string]string) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", nil
	}
	nameEnd := len(raw)
	for k := 0; k < len(raw); k++ {
		if raw[k] == ' ' || raw[k] == '\t' || raw[k] == '\n' || raw[k] == '\r' {
			nameEnd = k
			break
		}
	}
	name := strings.ToLower(raw[:nameEnd])
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			return "", nil
		}
	}
	rest := strings.TrimSpace(raw[nameEnd:])
	if rest == "" {
		return name, nil
	}
	attrs := make(map[string]string)
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		sp := strings.IndexByte(rest, ' ')
		if eq < 0 || (sp >= 0 && sp < eq) {
			// Bare attribute.
			var key string
			if sp < 0 {
				key, rest = rest, ""
			} else {
				key, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
			}
			if key != "" {
				attrs[strings.ToLower(key)] = ""
			}
			continue
		}
		key := strings.ToLower(strings.TrimSpace(rest[:eq]))
		rest = strings.TrimSpace(rest[eq+1:])
		var val string
		if len(rest) > 0 && (rest[0] == '"' || rest[0] == '\'') {
			q := rest[0]
			endQ := strings.IndexByte(rest[1:], q)
			if endQ < 0 {
				val, rest = rest[1:], ""
			} else {
				val, rest = rest[1:1+endQ], strings.TrimSpace(rest[1+endQ+1:])
			}
		} else {
			sp = strings.IndexByte(rest, ' ')
			if sp < 0 {
				val, rest = rest, ""
			} else {
				val, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
			}
		}
		if key != "" {
			attrs[key] = DecodeEntities(val)
		}
	}
	return name, attrs
}

// entityTable maps the named entities that occur in intranet HTML exports.
var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "agrave": "à", "egrave": "è", "eacute": "é",
	"igrave": "ì", "ograve": "ò", "ugrave": "ù", "Agrave": "À",
	"Egrave": "È", "deg": "°", "euro": "€", "laquo": "«", "raquo": "»",
	"rsquo": "’", "lsquo": "‘", "ldquo": "“", "rdquo": "”", "hellip": "…",
	"ndash": "–", "mdash": "—",
}

// DecodeEntities resolves named and numeric character references in s.
// Unknown references are left verbatim.
func DecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(s[i])
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if strings.HasPrefix(ent, "#") {
			code := 0
			ok := true
			digits := ent[1:]
			base := 10
			if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
				base = 16
				digits = digits[1:]
			}
			for _, c := range digits {
				var d int
				switch {
				case c >= '0' && c <= '9':
					d = int(c - '0')
				case base == 16 && c >= 'a' && c <= 'f':
					d = int(c-'a') + 10
				case base == 16 && c >= 'A' && c <= 'F':
					d = int(c-'A') + 10
				default:
					ok = false
				}
				if !ok {
					break
				}
				code = code*base + d
			}
			if ok && code > 0 && code <= 0x10FFFF {
				b.WriteRune(rune(code))
				i += semi + 1
				continue
			}
		} else if rep, found := entityTable[ent]; found {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}
