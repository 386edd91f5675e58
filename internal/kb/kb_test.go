package kb

import (
	"strings"
	"testing"

	"uniask/internal/textproc"
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	return Generate(GenConfig{Docs: 800, Seed: 42})
}

func TestGenerateDocCount(t *testing.T) {
	c := smallCorpus(t)
	if len(c.Docs) != 800 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Docs: 200, Seed: 7})
	b := Generate(GenConfig{Docs: 200, Seed: 7})
	for i := range a.Docs {
		if a.Docs[i].HTML != b.Docs[i].HTML {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(GenConfig{Docs: 100, Seed: 1})
	b := Generate(GenConfig{Docs: 100, Seed: 2})
	same := 0
	for i := range a.Docs {
		if a.Docs[i].HTML == b.Docs[i].HTML {
			same++
		}
	}
	if same == len(a.Docs) {
		t.Fatal("seeds have no effect")
	}
}

func TestCorpusShapeMatchesPaper(t *testing.T) {
	c := smallCorpus(t)
	s := c.ComputeStats()
	// Paper: avg 248 words, 7.6 paragraphs; accept a generous band.
	if s.AvgWords < 120 || s.AvgWords > 400 {
		t.Errorf("avg words = %.1f, want ~248", s.AvgWords)
	}
	if s.AvgParagraphs < 5 || s.AvgParagraphs > 10 {
		t.Errorf("avg paragraphs = %.1f, want ~7.6", s.AvgParagraphs)
	}
	if s.ClusteredDocs == 0 || s.Clusters == 0 {
		t.Error("no near-duplicate clusters generated")
	}
	frac := float64(s.ClusteredDocs) / float64(s.Docs)
	if frac < 0.1 || frac > 0.5 {
		t.Errorf("clustered fraction = %.2f, want significant replication", frac)
	}
}

func TestDocIDsUniqueAndResolvable(t *testing.T) {
	c := smallCorpus(t)
	seen := map[string]bool{}
	for _, d := range c.Docs {
		if seen[d.ID] {
			t.Fatalf("duplicate id %s", d.ID)
		}
		seen[d.ID] = true
		got, ok := c.DocByID(d.ID)
		if !ok || got.ID != d.ID {
			t.Fatalf("DocByID(%s) failed", d.ID)
		}
	}
	if _, ok := c.DocByID("nope"); ok {
		t.Fatal("DocByID on unknown id returned ok")
	}
}

func TestErrorClustersNearDuplicates(t *testing.T) {
	c := smallCorpus(t)
	var clustered *Doc
	for i := range c.Docs {
		if c.Docs[i].ClusterID != "" {
			clustered = &c.Docs[i]
			break
		}
	}
	if clustered == nil {
		t.Fatal("no clustered doc")
	}
	ids := c.Cluster(clustered.ID)
	if len(ids) < 2 {
		t.Fatalf("cluster size = %d", len(ids))
	}
	a, _ := c.DocByID(ids[0])
	b, _ := c.DocByID(ids[1])
	if a.Code == b.Code {
		t.Fatal("cluster members share a code")
	}
	// Replacing codes should make the texts identical.
	ta := strings.ReplaceAll(strings.Join(a.Paragraphs, "\n"), a.Code, "XXX")
	tb := strings.ReplaceAll(strings.Join(b.Paragraphs, "\n"), b.Code, "XXX")
	if ta != tb {
		t.Fatal("cluster members are not near-duplicates")
	}
	if a.Kind != ErrorDoc {
		t.Fatal("clustered doc is not an ErrorDoc")
	}
}

func TestClusterOfUnclusteredDocIsSelf(t *testing.T) {
	c := smallCorpus(t)
	for _, d := range c.Docs {
		if d.ClusterID == "" {
			ids := c.Cluster(d.ID)
			if len(ids) != 1 || ids[0] != d.ID {
				t.Fatalf("Cluster(%s) = %v", d.ID, ids)
			}
			return
		}
	}
}

func TestHTMLWellFormed(t *testing.T) {
	c := smallCorpus(t)
	for _, d := range c.Docs[:50] {
		if !strings.Contains(d.HTML, "<title>") || !strings.Contains(d.HTML, "<h1>") {
			t.Fatalf("doc %s HTML missing structure", d.ID)
		}
		if !strings.Contains(d.HTML, "<p>") {
			t.Fatalf("doc %s has no paragraphs", d.ID)
		}
		if strings.Count(d.HTML, "<p>") != len(d.Paragraphs) {
			t.Fatalf("doc %s paragraph count mismatch", d.ID)
		}
	}
}

func TestDomainsCoverPaperTopics(t *testing.T) {
	c := smallCorpus(t)
	domains := map[string]int{}
	for _, d := range c.Docs {
		domains[d.Domain]++
	}
	for _, want := range []string{"applicazioni bancarie", "processi generali", "temi tecnici"} {
		if domains[want] == 0 {
			t.Errorf("domain %q absent (have %v)", want, domains)
		}
	}
}

func TestAnswerSentencePresentInBody(t *testing.T) {
	c := smallCorpus(t)
	for _, d := range c.Docs[:100] {
		found := false
		for _, p := range d.Paragraphs {
			if strings.Contains(p, d.AnswerSentence) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("doc %s answer sentence not in body", d.ID)
		}
	}
}

func TestHumanDataset(t *testing.T) {
	c := smallCorpus(t)
	ds := c.HumanDataset(200, 99)
	if len(ds.Queries) != 200 {
		t.Fatalf("queries = %d", len(ds.Queries))
	}
	for _, q := range ds.Queries {
		if q.Kind != HumanQuery {
			t.Fatalf("question %s has kind %d, want HumanQuery", q.ID, q.Kind)
		}
		if q.Text == "" {
			t.Fatal("empty question")
		}
		if len(q.Relevant) == 0 {
			t.Fatalf("question %s has no ground truth", q.ID)
		}
		if q.Answer == "" {
			t.Fatalf("question %s has no ground-truth answer", q.ID)
		}
		for _, id := range q.Relevant {
			if _, ok := c.DocByID(id); !ok {
				t.Fatalf("ground-truth id %s not in corpus", id)
			}
		}
	}
}

func TestHumanQuestionsAreNaturalLanguage(t *testing.T) {
	c := smallCorpus(t)
	ds := c.HumanDataset(100, 5)
	question := 0
	for _, q := range ds.Queries {
		if strings.Contains(q.Text, "?") {
			question++
		}
	}
	if question < 80 {
		t.Fatalf("only %d/100 look like questions", question)
	}
}

func TestHumanQuestionsUseSynonyms(t *testing.T) {
	c := smallCorpus(t)
	ds := c.HumanDataset(300, 5)
	// A meaningful fraction of questions must contain at least one term
	// that does not occur verbatim in any relevant document (the lexical
	// gap the evaluation needs).
	gap := 0
	for _, q := range ds.Queries {
		d, _ := c.DocByID(q.Relevant[0])
		body := strings.ToLower(d.Title + " " + strings.Join(d.Paragraphs, " "))
		for _, w := range strings.Fields(strings.ToLower(strings.Trim(q.Text, "?"))) {
			if len(w) >= 5 && !strings.Contains(body, w) {
				gap++
				break
			}
		}
	}
	if gap < 100 {
		t.Fatalf("lexical gap present in only %d/300 questions", gap)
	}
}

func TestKeywordDataset(t *testing.T) {
	c := smallCorpus(t)
	ds := c.KeywordDataset(150, 3)
	if len(ds.Queries) != 150 {
		t.Fatalf("queries = %d", len(ds.Queries))
	}
	for _, q := range ds.Queries {
		if len(strings.Fields(q.Text)) > 6 {
			t.Fatalf("keyword query too long: %q", q.Text)
		}
		if len(q.Relevant) == 0 {
			t.Fatalf("query %s has no ground truth", q.ID)
		}
		if q.Answer != "" {
			t.Fatalf("keyword query %s must not carry an answer", q.ID)
		}
	}
}

func TestErrorCodeQueriesExactTruth(t *testing.T) {
	c := smallCorpus(t)
	ds := c.ErrorCodeDataset(50, 8)
	for _, q := range ds.Queries {
		if len(q.Relevant) != 1 {
			t.Fatalf("error-code query should have exactly one truth doc: %v", q.Relevant)
		}
		d, _ := c.DocByID(q.Relevant[0])
		if !strings.Contains(q.Text, d.Code) {
			t.Fatalf("query %q does not contain the code %s", q.Text, d.Code)
		}
	}
}

func TestSplit(t *testing.T) {
	c := smallCorpus(t)
	ds := c.HumanDataset(300, 5)
	val, test := ds.Split(1)
	if len(val.Queries) != 200 || len(test.Queries) != 100 {
		t.Fatalf("split = %d/%d", len(val.Queries), len(test.Queries))
	}
	// No overlap.
	seen := map[string]bool{}
	for _, q := range val.Queries {
		seen[q.ID] = true
	}
	for _, q := range test.Queries {
		if seen[q.ID] {
			t.Fatalf("query %s in both splits", q.ID)
		}
	}
	// Deterministic.
	val2, _ := ds.Split(1)
	for i := range val.Queries {
		if val.Queries[i].ID != val2.Queries[i].ID {
			t.Fatal("split not deterministic")
		}
	}
}

func TestOutOfScopeDataset(t *testing.T) {
	c := smallCorpus(t)
	ds := c.OutOfScopeDataset(10, 4)
	if len(ds.Queries) != 10 {
		t.Fatalf("queries = %d", len(ds.Queries))
	}
	for _, q := range ds.Queries {
		if len(q.Relevant) != 0 {
			t.Fatal("out-of-scope query has ground truth")
		}
		if q.Kind != OutOfScopeQuery {
			t.Fatal("wrong kind")
		}
	}
}

func TestUATDatasetComposition(t *testing.T) {
	c := smallCorpus(t)
	ds := c.UATDataset(210, 4)
	if len(ds.Queries) < 200 || len(ds.Queries) > 220 {
		t.Fatalf("uat size = %d", len(ds.Queries))
	}
	kinds := map[QueryKind]int{}
	for _, q := range ds.Queries {
		kinds[q.Kind]++
	}
	for _, k := range []QueryKind{HumanQuery, KeywordQuery, OutOfScopeQuery, ErrorCodeQuery, SpecialQuery} {
		if kinds[k] == 0 {
			t.Fatalf("uat missing kind %d: %v", k, kinds)
		}
	}
}

func TestLexiconMapsSynonymsTogether(t *testing.T) {
	v := BuildVocabulary(1)
	lex := v.Lexicon()
	if len(lex) < 100 {
		t.Fatalf("lexicon too small: %d", len(lex))
	}
	// "bloccare" and "sospendere" are variants of the same action concept.
	an := newAnalyzer()
	sa := an.AnalyzeTerms("bloccare")
	sb := an.AnalyzeTerms("sospendere")
	ca, oka := lex.ConceptOf(sa[0])
	cb, okb := lex.ConceptOf(sb[0])
	if !oka || !okb || ca != cb {
		t.Fatalf("synonyms not co-mapped: %v/%v %v/%v", ca, oka, cb, okb)
	}
}

func TestVocabularyShape(t *testing.T) {
	v := BuildVocabulary(1)
	if len(v.Entities) < 30 || len(v.Actions) < 20 || len(v.Facets) < 15 || len(v.Jargon) < 20 {
		t.Fatalf("vocabulary too small: %d/%d/%d/%d",
			len(v.Entities), len(v.Actions), len(v.Facets), len(v.Jargon))
	}
	for _, c := range v.All() {
		if len(c.Variants) == 0 {
			t.Fatalf("concept %s has no variants", c.ID)
		}
	}
}

// newAnalyzer is a test helper around the Italian analyzer.
func newAnalyzer() *textproc.Analyzer { return textproc.ItalianFull() }
