package kb

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// fillReplacer is fill as it was first written, with a strings.Replacer
// built per call: the oracle the one-pass substitution is held to.
func fillReplacer(tpl string, a, e, f, p, p2, code string) string {
	r := strings.NewReplacer("%A", a, "%E", e, "%F", f, "%P2", p2, "%P", p, "%C", code)
	s := r.Replace(tpl)
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	s = strings.ReplaceAll(s, " .", ".")
	return s
}

// TestFillMatchesReplacer runs every template the generators use, plus
// edge cases (a bare '%', slots that prefix each other, a value that looks
// like a slot), through both substitutions under argument sets with
// canonical, empty and slot-like values.
func TestFillMatchesReplacer(t *testing.T) {
	var tpls []string
	for _, pool := range [][]string{statementTemplates, answerTemplates, errorStatementTemplates,
		errorAnswerTemplates, humanTemplates, errorQuestionTemplates} {
		tpls = append(tpls, pool...)
	}
	tpls = append(tpls,
		"Il prodotto %E consente di %A %F; per l'attivazione è necessario %P.",
		"Per %A tramite %E %F è necessario %P.",
		"", "%", "%%", "%%A", "100%", "100% .", "%Z%A%", "%P2%P%P2", "%P%2", "%P 2", "%C%C",
		"a  %E  b .", "%A%E%F%P%P2%C", "fine %")
	v := BuildVocabulary(1)
	args := [][6]string{
		{v.Actions[0].Canonical(), v.Entities[0].Canonical(), v.Facets[0].Canonical(), "il PIN", "la firma", "ERR-2002"},
		{"", "", "", "", "", ""},
		{"%P2", "%A", "%%", "%P", "%E", "%C"},
		{"a  b", " ", " .", "x .", "  ", "%"},
	}
	for _, tpl := range tpls {
		for _, a := range args {
			want := fillReplacer(tpl, a[0], a[1], a[2], a[3], a[4], a[5])
			if got := fill(tpl, a[0], a[1], a[2], a[3], a[4], a[5]); got != want {
				t.Errorf("fill(%q, %q) = %q, want %q", tpl, a, got, want)
			}
		}
	}
}

// corpusDigests are the SHA-256 of whole generated corpora — every page's
// id, title and HTML, then human and keyword query sets — as the Replacer
// fill produced them, keyed by pages/seed. A byte that moves here moves
// the benchmark's gate digest.
var corpusDigests = map[string]string{
	"50/1":   "f21c1d0f255279daba3e1a53a73035f3200ab23847388ab9d701e0f0a7a707e5",
	"300/5":  "6247be00a00531182aeed2a7eb4cf67ff4aae9632fdeea652b14d81f6d2c415a",
	"600/1":  "9021a5b25478163240139b7bc807859165755bfda6dbd8634c87d34252099a70",
	"600/42": "2d799b5943455e5f3d806910ff357f660de620ac7ebfe20efc3eb0c460461c32",
}

func TestCorpusBytesPinned(t *testing.T) {
	for key, want := range corpusDigests {
		var docs int
		var seed int64
		if _, err := fmt.Sscanf(key, "%d/%d", &docs, &seed); err != nil {
			t.Fatal(err)
		}
		c := Generate(GenConfig{Docs: docs, Seed: seed})
		h := sha256.New()
		for _, d := range c.Docs {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00", d.ID, d.Title, d.HTML)
		}
		for _, ds := range []Dataset{c.HumanDataset(200, seed), c.KeywordDataset(100, seed)} {
			for _, q := range ds.Queries {
				fmt.Fprintf(h, "%s\x00%q\x00", q.Text, q.Relevant)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("corpus %s: digest %s, want %s", key, got, want)
		}
	}
}
