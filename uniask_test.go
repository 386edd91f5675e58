package uniask_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"uniask"
	"uniask/internal/chunker"
	"uniask/internal/fusion"
	"uniask/internal/generation"
	"uniask/internal/guardrails"
	"uniask/internal/index"
	"uniask/internal/ingest"
	"uniask/internal/search"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

func newSystem(t *testing.T) (*uniask.System, *uniask.Corpus) {
	t.Helper()
	corpus := uniask.SyntheticCorpus(200, 7)
	sys, err := uniask.NewFromCorpus(context.Background(), corpus, uniask.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, corpus
}

func TestQuickstartFlow(t *testing.T) {
	sys, corpus := newSystem(t)
	if sys.IndexedChunks() < len(corpus.Docs) {
		t.Fatalf("indexed %d chunks for %d docs", sys.IndexedChunks(), len(corpus.Docs))
	}
	d := corpus.Docs[0]
	resp, err := sys.Ask(context.Background(), "Come posso "+strings.ToLower(d.Title)+"?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answer == "" {
		t.Fatal("empty answer")
	}
	if len(resp.Documents) == 0 {
		t.Fatal("no documents")
	}
}

func TestSearchAPI(t *testing.T) {
	sys, corpus := newSystem(t)
	res, err := sys.Search(context.Background(), corpus.Docs[3].Title)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].ParentID == "" || res[0].Title == "" {
		t.Fatalf("result incomplete: %+v", res[0])
	}
}

func TestIndexHTMLIncremental(t *testing.T) {
	sys := uniask.New(uniask.Config{})
	html := `<html><head><title>Pagina incrementale</title></head><body>
<p>Per attivare il servizio speciale degli incrementi chiamare il numero interno.</p></body></html>`
	indexPage(t, sys, "extra1", html)
	if sys.IndexedChunks() == 0 {
		t.Fatal("nothing indexed")
	}
	res, err := sys.Search(context.Background(), "servizio speciale incrementi")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ParentID != "extra1" {
		t.Fatalf("results = %+v", res)
	}
}

// indexPage indexes one HTML page under id: one poller pass over a
// one-page source, the extraction, chunking and enrichment bulk loads run.
func indexPage(t *testing.T, sys *uniask.System, id, html string) {
	t.Helper()
	if _, err := sys.Engine().NewPoller(context.Background(), ingest.StaticSource{{ID: id, HTML: html}})(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexHTMLHonorsConfig: a single page goes through the same indexer
// configuration as a bulk load.
func TestIndexHTMLHonorsConfig(t *testing.T) {
	var body strings.Builder
	for i := 0; i < 12; i++ {
		body.WriteString("<p>Il servizio speciale degli incrementi prevede una procedura dedicata con verifica dei dati anagrafici del cliente.</p>\n")
	}
	html := "<html><head><title>Pagina incrementale</title></head><body>" + body.String() + "</body></html>"
	index := func(cfg uniask.Config) *uniask.System {
		sys := uniask.New(cfg)
		indexPage(t, sys, "extra1", html)
		return sys
	}

	var enrich uniask.Config
	enrich.Indexer.EnrichSummary = true

	sys := index(enrich)
	res, err := sys.Search(context.Background(), "servizio speciale incrementi")
	if err != nil || len(res) == 0 {
		t.Fatalf("results = %+v, %v", res, err)
	}
	if doc, _ := sys.Engine().Index.DocByID(res[0].ChunkID); doc.Fields["summary"] == "" {
		t.Fatal("EnrichSummary ignored: stored chunk has no summary")
	}
}

func TestGuardrailOnOffTopic(t *testing.T) {
	sys, _ := newSystem(t)
	resp, err := sys.Ask(context.Background(), "Qual è la ricetta della carbonara?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.AnswerValid {
		t.Fatalf("off-topic question got a valid answer: %q", resp.Answer)
	}
	if resp.Guardrail.String() == "none" {
		t.Fatal("no guardrail reported")
	}
}

func TestNewServerServesTraffic(t *testing.T) {
	sys, _ := newSystem(t)
	srv := sys.NewServer()
	if eng, err := srv.Tenants.Engine(tenant.Default); err != nil || eng != sys.Engine() {
		t.Fatalf("server not wired to engine: %v", err)
	}
}

func TestSaveLoadIndex(t *testing.T) {
	sys, corpus := newSystem(t)
	var buf bytes.Buffer
	if err := sys.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh system sharing the same lexicon loads the snapshot.
	sys2 := uniask.New(uniask.Config{Lexicon: corpus.Lexicon()})
	if err := sys2.LoadIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if sys2.IndexedChunks() != sys.IndexedChunks() {
		t.Fatalf("chunks %d != %d", sys2.IndexedChunks(), sys.IndexedChunks())
	}
	a, _ := sys.Search(context.Background(), corpus.Docs[0].Title)
	b, _ := sys2.Search(context.Background(), corpus.Docs[0].Title)
	if len(a) == 0 || len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("restored search differs: %v vs %v", a[:min(2, len(a))], b[:min(2, len(b))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestZeroConfigIsThePaperDeployment pins the promise behind "the zero
// Config is the deployed configuration" (§7): the defaults the zero value
// resolves to are the paper's numbers, and a Config with every knob spelled
// out at those numbers builds a system that behaves identically.
func TestZeroConfigIsThePaperDeployment(t *testing.T) {
	corpus := uniask.SyntheticCorpus(200, 7)
	ctx := context.Background()
	// build indexes the corpus under cfg and records what it does; a nil
	// opts searches through Search, which runs the zero search.Options.
	build := func(cfg uniask.Config, opts *search.Options) string {
		sys, err := uniask.NewFromCorpus(ctx, corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		behaviour := fmt.Sprintf("chunks=%d\n", sys.IndexedChunks())
		for _, q := range corpus.HumanDataset(5, 3).Queries {
			var res []uniask.Result
			var err error
			if opts != nil {
				res, err = sys.Engine().Searcher.Search(ctx, q.Text, *opts)
			} else {
				res, err = sys.Search(ctx, q.Text)
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, err := sys.Ask(ctx, q.Text)
			if err != nil {
				t.Fatal(err)
			}
			behaviour += fmt.Sprintf("%#v\n%q %v\n", res, resp.GeneratedAnswer, resp.Guardrail)
		}
		return behaviour
	}
	zeroBehaviour := build(uniask.Config{}, nil)

	for _, row := range []struct {
		knob      string
		got, want any
	}{
		{"M", generation.DefaultM, 4},
		{"RRF c", fusion.DefaultC, 60},
		{"chunk tokens", chunker.DefaultChunkTokens, 512},
		{"Guardrails.RougeThreshold", guardrails.DefaultRougeThreshold, 0.15},
		{"Segment.MemtableMaxDocs", index.DefaultMemtableMaxDocs, 1024},
		{"Segment.CompactionFanIn", index.DefaultCompactionFanIn, 4},
		{"Trace.Capacity", trace.DefaultCapacity, 2048},
	} {
		if row.got != row.want {
			t.Errorf("%s defaults to %v, the paper's deployment has %v", row.knob, row.got, row.want)
		}
	}

	var paper uniask.Config
	paper.Guardrails.RougeThreshold = 0.15
	paper.Segment = index.SegmentConfig{MemtableMaxDocs: 1024, CompactionFanIn: 4}
	paper.Trace.Capacity = 2048
	paperOpts := search.Options{TextN: 50, VectorK: 15, RRFC: 60}
	if got := build(paper, &paperOpts); got != zeroBehaviour {
		t.Errorf("a Config and search.Options spelling out n=50 K=15 c=60 rouge=0.15 behave differently from the zero values:\n got %s\nwant %s", got, zeroBehaviour)
	}
}
