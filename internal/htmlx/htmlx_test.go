package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html><head><title>Blocco carta di credito</title>
<meta name="domain" content="prodotti">
<style>.x{color:red}</style>
<script>var a = "<p>not text</p>";</script>
</head>
<body>
<h1>Blocco carta</h1>
<p>Per bloccare la carta chiamare il numero verde.</p>
<p>In caso di furto aprire una segnalazione &egrave; obbligatorio.</p>
<ul><li>Passo uno</li><li>Passo due</li></ul>
<!-- commento interno -->
<div>Nota finale &amp; contatti.</div>
</body></html>`

func TestExtractTitle(t *testing.T) {
	d := Extract(samplePage)
	if d.Title != "Blocco carta di credito" {
		t.Fatalf("Title = %q", d.Title)
	}
}

func TestExtractMeta(t *testing.T) {
	d := Extract(samplePage)
	if d.Meta["domain"] != "prodotti" {
		t.Fatalf("Meta = %v", d.Meta)
	}
}

func TestExtractParagraphs(t *testing.T) {
	d := Extract(samplePage)
	texts := make([]string, len(d.Paragraphs))
	for i, p := range d.Paragraphs {
		texts[i] = p.Text
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{
		"Blocco carta",
		"Per bloccare la carta chiamare il numero verde.",
		"In caso di furto aprire una segnalazione è obbligatorio.",
		"Passo uno", "Passo due",
		"Nota finale & contatti.",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("paragraphs missing %q in %q", want, joined)
		}
	}
	if strings.Contains(joined, "not text") {
		t.Errorf("script content leaked: %q", joined)
	}
	if strings.Contains(joined, "commento") {
		t.Errorf("comment content leaked: %q", joined)
	}
	if strings.Contains(joined, "color:red") {
		t.Errorf("style content leaked: %q", joined)
	}
}

// TestExtractParagraphOffsetsIncreasing: paragraphs come in document
// order — each one's first word occurs in the source after the previous
// one's.
func TestExtractParagraphOffsetsIncreasing(t *testing.T) {
	d := Extract(samplePage)
	last := -1
	for _, p := range d.Paragraphs {
		word := strings.Fields(p.Text)[0]
		i := strings.Index(samplePage[last+1:], word)
		if i < 0 {
			t.Fatalf("paragraph %q does not follow offset %d", p.Text, last)
		}
		last += 1 + i
	}
}

func TestExtractHeadingFlag(t *testing.T) {
	d := Extract(samplePage)
	var foundHeading bool
	for _, p := range d.Paragraphs {
		if p.Heading && p.Text == "Blocco carta" {
			foundHeading = true
		}
	}
	if !foundHeading {
		t.Fatal("h1 not flagged as heading")
	}
}

func TestTitleFallsBackToH1(t *testing.T) {
	d := Extract("<html><body><h1>Solo intestazione</h1><p>testo</p></body></html>")
	if d.Title != "Solo intestazione" {
		t.Fatalf("Title = %q", d.Title)
	}
}

func TestMalformedHTMLDoesNotPanic(t *testing.T) {
	inputs := []string{
		"", "<", "<p", "<>", "< >", "<p><b>unclosed",
		"testo senza tag", "<p>a<p>b", "<script>never closed",
		"&#x;&#;&unknown; testo", "<!---->", "<!-- unterminated",
		"<p attr='unterminated>x</p>",
	}
	for _, in := range inputs {
		d := Extract(in) // must not panic
		_ = d.Text()
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":       "a & b",
		"perch&egrave;":   "perchè",
		"&#65;&#x42;":     "AB",
		"&unknown; resta": "&unknown; resta",
		"100&euro;":       "100€",
		"&":               "&",
		"a&amp":           "a&amp",
		"&lt;p&gt;":       "<p>",
		"&nbsp;spazio":    " spazio",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeSpace(t *testing.T) {
	if got := NormalizeSpace("  a \n\t b  c  "); got != "a b c" {
		t.Fatalf("NormalizeSpace = %q", got)
	}
}

func TestTokenizeAttrs(t *testing.T) {
	toks := Tokenize(`<a href="x.html" class='c' disabled>link</a>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[0].Attrs["href"] != "x.html" || toks[0].Attrs["class"] != "c" {
		t.Fatalf("attrs = %v", toks[0].Attrs)
	}
	if _, ok := toks[0].Attrs["disabled"]; !ok {
		t.Fatalf("bare attribute lost: %v", toks[0].Attrs)
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := Tokenize("<br/><img src='x'/>")
	if toks[0].Type != SelfClosingToken || toks[0].Name != "br" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Type != SelfClosingToken || toks[1].Name != "img" {
		t.Fatalf("tok1 = %+v", toks[1])
	}
}

// Property: Extract never panics and yields no empty paragraph.
func TestExtractProperty(t *testing.T) {
	f := func(s string) bool {
		d := Extract(s)
		for _, p := range d.Paragraphs {
			if p.Text == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeEntities is identity on entity-free ASCII strings.
func TestDecodeEntitiesIdentityProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.ReplaceAll(s, "&", "")
		return DecodeEntities(clean) == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
