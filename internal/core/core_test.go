package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uniask/internal/faulty"
	"uniask/internal/guardrails"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/resilience"
	"uniask/internal/search"
)

// buildEngine indexes a small corpus once for the whole test file.
var (
	testCorpus *kb.Corpus
	testEngine *Engine
)

func engine(t *testing.T) (*Engine, *kb.Corpus) {
	t.Helper()
	if testEngine == nil {
		testCorpus = kb.Generate(kb.GenConfig{Docs: 300, Seed: 11})
		var err error
		testEngine, err = BuildFromCorpus(context.Background(), testCorpus, Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	return testEngine, testCorpus
}

func TestBuildIndexesAllDocs(t *testing.T) {
	e, c := engine(t)
	if e.Index.Len() < len(c.Docs) {
		t.Fatalf("index has %d chunks for %d docs", e.Index.Len(), len(c.Docs))
	}
}

func TestAskGroundedQuestion(t *testing.T) {
	e, c := engine(t)
	// Ask about a real document using its own canonical phrasing: the
	// system must find it and generate a valid cited answer.
	ds := c.HumanDataset(30, 77)
	valid := 0
	for _, q := range ds.Queries {
		resp, err := e.Ask(context.Background(), q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Documents) == 0 {
			t.Fatalf("no documents for %q", q.Text)
		}
		if resp.AnswerValid {
			valid++
			if len(resp.Citations) == 0 {
				t.Fatalf("valid answer without citations: %+v", resp)
			}
			if resp.Answer != resp.GeneratedAnswer {
				t.Fatal("valid answer text mismatch")
			}
		}
	}
	if valid < 20 {
		t.Fatalf("only %d/30 questions got valid answers", valid)
	}
}

func TestAskOutOfScopeTriggersGuardrail(t *testing.T) {
	e, c := engine(t)
	ds := c.OutOfScopeDataset(10, 3)
	triggered := 0
	for _, q := range ds.Queries {
		resp, err := e.Ask(context.Background(), q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.AnswerValid {
			triggered++
			// The document list is still shown.
			if resp.Answer == "" {
				t.Fatal("invalidated response has no user message")
			}
		}
	}
	if triggered < 7 {
		t.Fatalf("only %d/10 out-of-scope questions blocked", triggered)
	}
}

func TestAskContentFilterBlocksBeforeRetrieval(t *testing.T) {
	e, _ := engine(t)
	resp, err := e.Ask(context.Background(), "questo maledetto sistema, come apro un conto?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Guardrail != guardrails.Content {
		t.Fatalf("guardrail = %v", resp.Guardrail)
	}
	if len(resp.Documents) != 0 {
		t.Fatal("content-filtered question still retrieved documents")
	}
}

func TestSearchReturnsParentableResults(t *testing.T) {
	e, c := engine(t)
	hits, err := e.Search(context.Background(), c.Docs[0].Title)
	if err != nil {
		t.Fatal(err)
	}
	results := hits.Results
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].ParentID == "" || results[0].ChunkID == "" {
		t.Fatalf("result ids missing: %+v", results[0])
	}
	parents := search.ParentRanking(results)
	seen := map[string]bool{}
	for _, p := range parents {
		if seen[p] {
			t.Fatal("duplicate parent in ranking")
		}
		seen[p] = true
	}
}

// TestAskDocumentsAreCopies: an ask served from the query cache hands out
// its own document list, so a caller that edits it leaves the cache intact.
func TestAskDocumentsAreCopies(t *testing.T) {
	e, c := engine(t)
	ctx := context.Background()
	q := c.Docs[0].Title
	for i := 0; i < 2; i++ { // the second ask is a cache hit
		resp, err := e.Ask(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Documents) == 0 {
			t.Fatal("no documents")
		}
		resp.Documents[0].ChunkID = "corrupted"
	}
	hits, err := e.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Results[0].ChunkID == "corrupted" {
		t.Fatal("editing an ask's documents corrupted the query cache")
	}
}

func TestSearchFindsTargetDocument(t *testing.T) {
	e, c := engine(t)
	// Query with a document's exact title: its parent must rank first.
	d := c.Docs[5]
	hits, err := e.Search(context.Background(), d.Title)
	if err != nil {
		t.Fatal(err)
	}
	results := hits.Results
	parents := search.ParentRanking(results)
	found := false
	for i, p := range parents {
		if p == d.ID && i < 5 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("doc %s not in top-5 for its own title %q: %v", d.ID, d.Title, parents[:min(5, len(parents))])
	}
}

func TestRetrieverAdapter(t *testing.T) {
	e, c := engine(t)
	retr := e.Retriever(context.Background(), search.Options{})
	ranked := retr(c.Docs[0].Title)
	if len(ranked) == 0 {
		t.Fatal("retriever returned nothing")
	}
	for _, id := range ranked {
		if strings.Contains(id, "#") {
			t.Fatalf("retriever leaked chunk id: %s", id)
		}
	}
}

// stageRecorder is a thread-safe observer counting stage reports.
type stageRecorder struct {
	mu     sync.Mutex
	counts map[string]int
}

func (r *stageRecorder) ObserveStage(info pipeline.StageInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts == nil {
		r.counts = map[string]int{}
	}
	r.counts[info.Stage]++
}

func (r *stageRecorder) count(stage string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[stage]
}

// TestAskReportsAllPipelineStages checks that one Ask reports every
// Figure-1 stage exactly once through the engine's observer.
func TestAskReportsAllPipelineStages(t *testing.T) {
	e, c := engine(t)
	rec := &stageRecorder{}
	e.SetObserver(rec)
	defer e.SetObserver(nil)
	if _, err := e.Ask(context.Background(), c.Docs[0].Title+"?"); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		pipeline.StageFilter, pipeline.StageEmbed, pipeline.StageRetrieval,
		pipeline.StageFusion, pipeline.StageRerank,
		pipeline.StageGeneration, pipeline.StageGuardrails,
	} {
		if n := rec.count(stage); n != 1 {
			t.Errorf("stage %q reported %d times, want 1 (counts=%v)", stage, n, rec.counts)
		}
	}
}

// TestAskContentFilterStopsPipeline checks a filtered question reports the
// filter stage but never reaches retrieval or generation.
func TestAskContentFilterStopsPipeline(t *testing.T) {
	e, _ := engine(t)
	rec := &stageRecorder{}
	e.SetObserver(rec)
	defer e.SetObserver(nil)
	resp, err := e.Ask(context.Background(), "questo maledetto sistema, come apro un conto?")
	if err != nil || resp.Guardrail != guardrails.Content {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if rec.count(pipeline.StageFilter) != 1 {
		t.Fatal("filter stage not reported")
	}
	if rec.count(pipeline.StageRetrieval) != 0 || rec.count(pipeline.StageGeneration) != 0 {
		t.Fatalf("filtered question still ran later stages: %v", rec.counts)
	}
}

// TestAskHonorsCancellation checks Ask surfaces ctx.Err() at every stage
// boundary instead of returning a partial response.
func TestAskHonorsCancellation(t *testing.T) {
	e, c := engine(t)
	defer e.SetObserver(nil)
	question := c.Docs[0].Title + "?"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Ask(ctx, question); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Ask err = %v", err)
	}

	for _, stage := range []string{pipeline.StageFilter, pipeline.StageRetrieval, pipeline.StageGeneration} {
		// The test asserts every stage actually runs, so a query-cache hit
		// (the shared engine may have answered this question already) would
		// skip retrieval and never trigger the cancel.
		e.Searcher.Cache.Purge()
		ctx, cancel := context.WithCancel(context.Background())
		stage := stage
		var once sync.Once
		e.SetObserver(pipeline.ObserverFunc(func(info pipeline.StageInfo) {
			if info.Stage == stage {
				once.Do(cancel)
			}
		}))
		_, err := e.Ask(ctx, question)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %q: err = %v", stage, err)
		}
		cancel()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mutableSource is an editable KB for poller tests.
type mutableSource struct{ pages []ingest.Page }

func (m *mutableSource) Pages() []ingest.Page { return m.pages }

func TestPollerAppliesEditsAndDeletions(t *testing.T) {
	eng := New(Config{})
	src := &mutableSource{pages: []ingest.Page{
		{ID: "p1", HTML: "<html><head><title>Pagina uno</title></head><body><p>Contenuto originale con parola unicaoriginale.</p></body></html>"},
	}}
	sync := eng.NewPoller(context.Background(), src)

	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("initial sync = %d, %v", n, err)
	}
	if hits, _ := eng.Search(context.Background(), "unicaoriginale"); len(hits.Results) == 0 {
		t.Fatal("initial content not indexed")
	}

	// Unchanged poll is a no-op.
	if n, err := sync(); err != nil || n != 0 {
		t.Fatalf("idempotent sync = %d, %v", n, err)
	}

	// Edit.
	src.pages[0].HTML = "<html><head><title>Pagina uno</title></head><body><p>Contenuto aggiornato con parola unicanuova.</p></body></html>"
	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("edit sync = %d, %v", n, err)
	}
	if hits, _ := eng.Search(context.Background(), "unicanuova"); len(hits.Results) == 0 {
		t.Fatal("edited content not searchable")
	}
	// Vector search still returns the nearest (new) chunk for any query —
	// UniAsk always shows a document list — but no result may carry the
	// stale text.
	hits, _ := eng.Search(context.Background(), "unicaoriginale")
	res := hits.Results
	for _, r := range res {
		if strings.Contains(r.Content, "unicaoriginale") {
			t.Fatalf("stale content still searchable: %v", r)
		}
	}

	// Deletion.
	src.pages = nil
	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("delete sync = %d, %v", n, err)
	}
	if p, _ := eng.Index.HasParents([]string{"p1"}); p[0] {
		t.Fatal("deleted page still live")
	}
}

// failingLLMEngine enriches every page with an LLM summary and scripts the
// outcome of each summary call. One attempt per call: a scripted fault is
// one failed summary, and a script fails too rarely to open the breaker.
func failingLLMEngine(script ...faulty.Kind) *Engine {
	return New(Config{
		Indexer:    indexer.Config{EnrichSummary: true},
		Resilience: ResilienceConfig{LLMPolicy: resilience.Policy{MaxAttempts: -1}},
		LLMMiddleware: func(c llm.Client) llm.Client {
			return &faulty.Client{Inner: c, Sched: faulty.Script(script...)}
		},
	})
}

func htmlPage(body string) string {
	return "<html><head><title>Pagina uno</title></head><body><p>" + body + "</p></body></html>"
}

// TestFailedPassReoffersThePage: a page whose indexing failed is offered
// again by the next pass instead of waiting for a second edit.
func TestFailedPassReoffersThePage(t *testing.T) {
	eng := failingLLMEngine(faulty.Error)
	src := &mutableSource{pages: []ingest.Page{{ID: "p1", HTML: htmlPage("Contenuto con parola unicaoriginale.")}}}
	sync := eng.NewPoller(context.Background(), src)

	if _, err := sync(); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("pass 1 err = %v; want the injected LLM error", err)
	}
	if p, _ := eng.Index.HasParents([]string{"p1"}); p[0] {
		t.Fatal("pass 1 indexed a page whose enrichment failed")
	}
	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("pass 2 = %d, %v; want the page retried", n, err)
	}
	if len(eng.Index.SearchText("unicaoriginale", 5, index.TextOptions{})) == 0 {
		t.Fatal("retried page not searchable")
	}
	if n, err := sync(); err != nil || n != 0 {
		t.Fatalf("pass 3 = %d, %v; want nothing left to do", n, err)
	}
}

// TestFailedEnrichmentKeepsLiveVersion: an edit whose LLM enrichment fails
// leaves the previous version of the page searchable.
func TestFailedEnrichmentKeepsLiveVersion(t *testing.T) {
	eng := failingLLMEngine(faulty.OK, faulty.Error)
	src := &mutableSource{pages: []ingest.Page{{ID: "p1", HTML: htmlPage("Contenuto con parola unicaoriginale.")}}}
	sync := eng.NewPoller(context.Background(), src)
	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("initial pass = %d, %v", n, err)
	}

	src.pages[0].HTML = htmlPage("Contenuto con parola unicanuova.")
	if _, err := sync(); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("edit pass err = %v; want the injected LLM error", err)
	}
	if len(eng.Index.SearchText("unicaoriginale", 5, index.TextOptions{})) == 0 {
		t.Fatal("failed enrichment removed the live version of the page")
	}
	if n, err := sync(); err != nil || n != 1 {
		t.Fatalf("retry pass = %d, %v", n, err)
	}
	if len(eng.Index.SearchText("unicanuova", 5, index.TextOptions{})) == 0 ||
		len(eng.Index.SearchText("unicaoriginale", 5, index.TextOptions{})) != 0 {
		t.Fatal("retry did not replace the page")
	}
}

// TestIndexCorpusIsFirstPollerPass: a bulk load and the first pass of a
// poller over the same pages are one path, so they leave the same store.
func TestIndexCorpusIsFirstPollerPass(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 120, Seed: 5})
	pages := make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	cfg := Config{Lexicon: corpus.Lexicon(), Segment: index.SegmentConfig{MemtableMaxDocs: 32, CompactionFanIn: -1}}
	ctx := context.Background()

	bulk, polled := New(cfg), New(cfg)
	if err := bulk.IndexCorpus(ctx, corpus); err != nil {
		t.Fatal(err)
	}
	if n, err := polled.NewPoller(ctx, pages)(); err != nil || n != len(pages) {
		t.Fatalf("first pass = %d, %v", n, err)
	}

	liveDocs := func(e *Engine) []index.Document {
		return e.Index.(interface{ LiveDocs() []index.Document }).LiveDocs()
	}
	if a, b := liveDocs(bulk), liveDocs(polled); !reflect.DeepEqual(a, b) {
		t.Fatalf("live documents differ: %d vs %d", len(a), len(b))
	}
	sa, sb := bulk.SegmentStats(), polled.SegmentStats()
	if !reflect.DeepEqual(sa, sb) || sa[0].Seals < 2 {
		t.Fatalf("segment stats differ or the store never sealed:\n%+v\n%+v", sa, sb)
	}
	for _, q := range corpus.HumanDataset(10, 3).Queries {
		ha, errA := bulk.Search(ctx, q.Text)
		hb, errB := polled.Search(ctx, q.Text)
		ra, rb := ha.Results, hb.Results
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if fmt.Sprintf("%#v", ra) != fmt.Sprintf("%#v", rb) {
			t.Fatalf("rankings differ for %q", q.Text)
		}
	}
}

// TestBuildFromCorpusIsQuiescent: the memtable bound makes the load seal
// three segments on its own and the closing publication a fourth, which
// owes one merge at the default fan-in — started in the background as the
// load returns. BuildFromCorpus returns only once that merge is done, so
// two builds of one corpus hold the same segment layout and give the same
// retrievals.
func TestBuildFromCorpusIsQuiescent(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 160, Seed: 7})
	cfg := Config{Segment: index.SegmentConfig{MemtableMaxDocs: 64}}
	ctx := context.Background()
	build := func() *Engine {
		t.Helper()
		e, err := BuildFromCorpus(ctx, corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := e.SegmentStats()[0]
		if st.Backlog != 0 || st.Compactions == 0 {
			t.Fatalf("built engine: %d merges owed after %d compactions, want 0 owed after at least one", st.Backlog, st.Compactions)
		}
		return e
	}
	a, b := build(), build()
	if sa, sb := a.SegmentStats(), b.SegmentStats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("segment stats differ:\n%+v\n%+v", sa, sb)
	}
	for _, q := range corpus.HumanDataset(12, 3).Queries {
		ha, errA := a.Search(ctx, q.Text)
		hb, errB := b.Search(ctx, q.Text)
		ra, rb := ha.Results, hb.Results
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if fmt.Sprintf("%#v", ra) != fmt.Sprintf("%#v", rb) {
			t.Fatalf("rankings differ for %q", q.Text)
		}
	}
}

// TestShardedEngineLoadsSingleStoreSnapshot is the 1 → N migration: what a
// single-store engine saves (the segmented container) loads into a sharded
// engine, every live document re-routed, text rankings unchanged.
func TestShardedEngineLoadsSingleStoreSnapshot(t *testing.T) {
	src, corpus := engine(t)
	var snap bytes.Buffer
	if err := src.Index.Save(&snap); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Lexicon: corpus.Lexicon(), ShardCount: 4})
	if err := dst.LoadIndex(&snap); err != nil {
		t.Fatalf("4-shard engine refused a single-store snapshot: %v", err)
	}
	if dst.Sharded() == nil || dst.Sharded().NumShards() != 4 {
		t.Fatal("loaded index is not the 4-shard facade")
	}
	if got, want := dst.Index.LiveLen(), src.Index.LiveLen(); got != want {
		t.Fatalf("live chunks = %d, want %d", got, want)
	}
	text := search.Options{Mode: search.TextOnly}
	for _, q := range corpus.HumanDataset(6, 3).Queries {
		want, errA := src.Searcher.Search(context.Background(), q.Text, text)
		got, errB := dst.Searcher.Search(context.Background(), q.Text, text)
		if errA != nil || errB != nil || len(want) == 0 {
			t.Fatalf("search %q: %d results, %v, %v", q.Text, len(want), errA, errB)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("text ranking for %q differs after migration:\n got %#v\nwant %#v", q.Text, got, want)
		}
	}
}

// TestLoadIndexKeepsSegmentConfig: LoadIndex rebuilds the store from the
// same configuration New used, so a 32-chunk memtable bound still seals at
// 32 after a load (the default would wait for 1024).
func TestLoadIndexKeepsSegmentConfig(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 40, Seed: 5})
	cfg := Config{Lexicon: corpus.Lexicon(), Segment: index.SegmentConfig{MemtableMaxDocs: 32, CompactionFanIn: -1}}
	src, err := BuildFromCorpus(context.Background(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Index.Save(&snap); err != nil {
		t.Fatal(err)
	}
	eng := New(cfg)
	if err := eng.LoadIndex(&snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if st := eng.SegmentStats()[0]; st.Seals != 0 || st.MemtableDocs != i {
			t.Fatalf("after %d adds: %+v, want no seal yet", i, st)
		}
		id := fmt.Sprintf("extra%02d", i)
		err := eng.Index.Add(index.Document{ID: id + "#0", ParentID: id, Fields: map[string]string{"content": "bonifico estero"}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.SegmentStats()[0]; st.Seals != 1 || st.MemtableDocs != 0 {
		t.Fatalf("after 32 adds: %+v, want the memtable sealed once", st)
	}
}
