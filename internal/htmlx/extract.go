package htmlx

import "strings"

// Paragraph is a block-level text unit extracted from an HTML page: the
// paper's ad-hoc chunker splits at the start of each one.
type Paragraph struct {
	// Text is the concatenated, entity-decoded, whitespace-normalized text
	// content of the block.
	Text string
	// Heading reports whether the block is a heading element.
	Heading bool
}

// Document is the extraction result for one HTML page.
type Document struct {
	// Title is the contents of <title>, or the first <h1> when <title> is
	// absent.
	Title string
	// Paragraphs are the block-level text units in document order.
	Paragraphs []Paragraph
	// Meta holds <meta name=... content=...> pairs.
	Meta map[string]string
}

// blockTags are the elements whose boundaries terminate a paragraph.
var blockTags = map[string]bool{
	"p": true, "h1": true, "h2": true, "h3": true, "h4": true, "h5": true,
	"h6": true, "li": true, "td": true, "th": true, "div": true,
	"section": true, "article": true, "blockquote": true, "pre": true,
	"tr": true, "table": true, "ul": true, "ol": true, "br": true,
	"header": true, "footer": true, "nav": true, "main": true,
}

var headingTags = map[string]bool{
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
}

// skipContent marks elements whose text content is never extracted.
var skipContent = map[string]bool{"script": true, "style": true, "noscript": true}

// Extract parses an HTML document and returns its title and paragraphs.
func Extract(doc string) Document {
	tokens := Tokenize(doc)
	out := Document{Meta: make(map[string]string)}

	var (
		cur        strings.Builder
		inTitle    bool
		inSkip     int
		titleBuf   strings.Builder
		curHeading bool
	)
	flush := func() {
		text := NormalizeSpace(DecodeEntities(cur.String()))
		if text != "" {
			out.Paragraphs = append(out.Paragraphs, Paragraph{
				Text: text, Heading: curHeading,
			})
		}
		cur.Reset()
		curHeading = false
	}
	for _, tok := range tokens {
		switch tok.Type {
		case StartTagToken, SelfClosingToken:
			if skipContent[tok.Name] {
				if tok.Type == StartTagToken {
					inSkip++
				}
				continue
			}
			if tok.Name == "title" {
				inTitle = true
				continue
			}
			if tok.Name == "meta" {
				if name, ok := tok.Attrs["name"]; ok {
					out.Meta[strings.ToLower(name)] = tok.Attrs["content"]
				}
				continue
			}
			if blockTags[tok.Name] {
				flush()
				curHeading = headingTags[tok.Name]
			}
		case EndTagToken:
			if skipContent[tok.Name] {
				if inSkip > 0 {
					inSkip--
				}
				continue
			}
			if tok.Name == "title" {
				inTitle = false
				continue
			}
			if blockTags[tok.Name] {
				flush()
			}
		case TextToken:
			if inSkip > 0 {
				continue
			}
			if inTitle {
				titleBuf.WriteString(tok.Data)
				continue
			}
			cur.WriteString(tok.Data)
			cur.WriteByte(' ')
		}
	}
	flush()

	out.Title = NormalizeSpace(DecodeEntities(titleBuf.String()))
	if out.Title == "" {
		for _, p := range out.Paragraphs {
			if p.Heading {
				out.Title = p.Text
				break
			}
		}
	}
	return out
}

// Text returns the full extracted body text of the document, paragraphs
// joined by newlines.
func (d Document) Text() string {
	parts := make([]string, len(d.Paragraphs))
	for i, p := range d.Paragraphs {
		parts[i] = p.Text
	}
	return strings.Join(parts, "\n")
}

// NormalizeSpace collapses runs of whitespace to single spaces and trims.
func NormalizeSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ' ' {
			if !space {
				b.WriteByte(' ')
				space = true
			}
			continue
		}
		b.WriteRune(r)
		space = false
	}
	return strings.TrimRight(b.String(), " ")
}
