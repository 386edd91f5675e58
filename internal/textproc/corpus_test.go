package textproc_test

import (
	"runtime"
	"strings"
	"testing"

	"uniask/internal/kb"
	"uniask/internal/textproc"
)

// benchCorpus is the 600-page corpus the serving benchmark indexes.
func benchCorpus() *kb.Corpus { return kb.Generate(kb.GenConfig{Docs: 600, Seed: 1}) }

// pageText is a page's title and paragraphs, as the chunker sees them.
func pageText(d kb.Doc) string { return d.Title + "\n" + strings.Join(d.Paragraphs, "\n") }

// TestAnalyzerMatchesOracleOnCorpus replays the analyzer oracle over every
// page of the benchmark's corpus (title, each paragraph and the rendered
// HTML) and over the UAT question pool its cold workload asks from: tokens,
// offsets, positions and terms must all equal the oracle's.
func TestAnalyzerMatchesOracleOnCorpus(t *testing.T) {
	corpus := benchCorpus()
	var texts []string
	for _, d := range corpus.Docs {
		texts = append(texts, d.Title, d.HTML)
		texts = append(texts, d.Paragraphs...)
	}
	for _, q := range corpus.UATDataset(24000, 1001).Queries {
		texts = append(texts, q.Text)
	}
	for _, text := range texts {
		if diff := textproc.DiffOracle(text); diff != "" {
			t.Fatal(diff)
		}
	}
	t.Logf("%d texts agree with the oracle", len(texts))
}

// TestTokenizeAllocs pins Tokenize to one allocation, the token slice,
// on every page: it decodes the text in place.
func TestTokenizeAllocs(t *testing.T) {
	for _, d := range benchCorpus().Docs {
		page := pageText(d)
		if n := testing.AllocsPerRun(5, func() { textproc.Tokenize(page) }); n > 2 {
			t.Fatalf("Tokenize(%s) made %v allocations, budget 2", d.ID, n)
		}
	}
}

// TestAnalyzeUniqueBytes requires AnalyzeUnique over every page to
// allocate less than a tenth of what the oracle's Analyze-then-set does.
func TestAnalyzeUniqueBytes(t *testing.T) {
	pages := benchPages()
	it := textproc.ItalianFull()
	allocated := func(analyze func(*textproc.Analyzer, string) map[string]struct{}) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, page := range pages {
			analyze(it, page)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	got := allocated((*textproc.Analyzer).AnalyzeUnique)
	was := allocated(textproc.OracleAnalyzeUnique)
	t.Logf("%d pages: AnalyzeUnique %d B, oracle %d B", len(pages), got, was)
	if got*10 >= was {
		t.Fatalf("AnalyzeUnique allocated %d B over %d pages, budget < %d B (a tenth of the oracle's)", got, len(pages), was/10)
	}
}

// benchPages is every page of the benchmark corpus as text.
func benchPages() []string {
	var pages []string
	for _, d := range benchCorpus().Docs {
		pages = append(pages, pageText(d))
	}
	return pages
}

// BenchmarkTokenize tokenizes one corpus page per op, cycling through
// all 600.
func BenchmarkTokenize(b *testing.B) {
	pages := benchPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textproc.Tokenize(pages[i%len(pages)])
	}
}

// BenchmarkAnalyzeUnique analyzes one corpus page per op into its term
// set with the Italian analyzer, cycling through all 600: the reranker's
// per-candidate cost.
func BenchmarkAnalyzeUnique(b *testing.B) {
	pages := benchPages()
	it := textproc.ItalianFull()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.AnalyzeUnique(pages[i%len(pages)])
	}
}
