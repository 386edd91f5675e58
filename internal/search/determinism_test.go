package search

// The concurrent stage pipeline must be observationally identical to the
// straight-line sequential query path it replaced: same rankings, same
// scores, same byte-for-byte results, in every retrieval mode and under
// every query expansion — and a cancelled search must return ctx.Err(),
// never partial results. This file keeps a faithful copy of the sequential
// reference implementation and asserts the equivalence.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/fusion"
	"uniask/internal/index"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/rerank"
	"uniask/internal/vector"
)

// buildLargeSearcher indexes a corpus big enough that rankings from the
// different components genuinely interleave, so any fan-out ordering bug
// would change the fused ranking.
func buildLargeSearcher(t testing.TB) *Searcher {
	t.Helper()
	lex := embedding.MapLexicon{
		"blocca": "act:block", "sospende": "act:block", "disattiva": "act:block",
		"cart": "obj:card", "tesser": "obj:card",
		"bonific": "obj:transfer", "trasferiment": "obj:transfer",
		"cont": "obj:account", "deposit": "obj:account",
		"mutu": "obj:loan", "prestit": "obj:loan",
	}
	emb := embedding.NewSynth(64, lex)
	ix := index.New(index.Config{})

	subjects := []string{"carta di credito", "bonifico estero", "conto corrente", "mutuo prima casa", "prestito personale"}
	actions := []string{"bloccare", "aprire", "chiudere", "modificare", "verificare"}
	codes := []string{"ERR-1001", "ERR-2002", "PRC-3003", "PRC-4004"}
	n := 0
	for si, subj := range subjects {
		for ai, act := range actions {
			for v := 0; v < 2; v++ {
				id := fmt.Sprintf("d%02d#%d", si*len(actions)+ai, v)
				title := fmt.Sprintf("%s %s", act, subj)
				content := fmt.Sprintf(
					"La procedura per %s il servizio %s richiede il codice %s e la verifica del cliente variante %d.",
					act, subj, codes[(si+ai+v)%len(codes)], v)
				err := ix.Add(index.Document{
					ID:       id,
					ParentID: id[:3],
					Fields:   map[string]string{"title": title, "content": content},
					Vectors: map[string]vector.Vector{
						"titleVector":   emb.Embed(title),
						"contentVector": emb.Embed(content),
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	if n < 50 {
		t.Fatalf("corpus too small: %d chunks", n)
	}
	return &Searcher{
		Index:    ix,
		Embedder: emb,
		Reranker: rerank.New(),
		LLM:      llm.NewSim(llm.DefaultBehavior()),
	}
}

// --- Sequential reference: a faithful copy of the pre-pipeline code path. ---

func seqSearch(s *Searcher, ctx context.Context, query string, opts Options) ([]Result, error) {
	opts = opts.withDefaults()
	switch opts.Expansion {
	case QGA:
		resp, err := s.LLM.Complete(ctx, llm.BuildDirectAnswerPrompt(query))
		if err != nil {
			return nil, err
		}
		expanded := query + " " + resp.Content
		opts.Expansion = NoExpansion
		return seqOnce(s, expanded, seqEmbed(s, expanded), opts), nil
	case MQ1:
		queries, err := seqRelated(s, ctx, query, relatedQueries)
		if err != nil {
			return nil, err
		}
		queries = append([]string{query}, queries...)
		var rankings []fusion.Ranking
		for _, q := range queries {
			rankings = append(rankings, seqComponents(s, q, seqEmbed(s, q), opts)...)
		}
		fused := fusion.RRF(rankings, opts.RRFC)
		if len(fused) > finalN {
			fused = fused[:finalN]
		}
		return seqFinalize(s, query, seqEmbed(s, query), fused, opts), nil
	case MQ2:
		queries, err := seqRelated(s, ctx, query, relatedQueries)
		if err != nil {
			return nil, err
		}
		queries = append([]string{query}, queries...)
		concat := ""
		vecs := make([]vector.Vector, 0, len(queries))
		for _, q := range queries {
			if concat != "" {
				concat += " "
			}
			concat += q
			vecs = append(vecs, seqEmbed(s, q))
		}
		qvec := embedding.Mean(vecs, s.Embedder.Dim())
		opts.Expansion = NoExpansion
		return seqOnce(s, concat, qvec, opts), nil
	}
	return seqOnce(s, query, seqEmbed(s, query), opts), nil
}

// seqEmbed is the reference path's query embedding: the in-process
// embedder never fails.
func seqEmbed(s *Searcher, query string) vector.Vector {
	v, _ := s.Embedder.EmbedCtx(context.Background(), query)
	return v
}

func seqOnce(s *Searcher, query string, qvec vector.Vector, opts Options) []Result {
	rankings := seqComponents(s, query, qvec, opts)
	fused := fusion.RRF(rankings, opts.RRFC)
	if len(fused) > finalN {
		fused = fused[:finalN]
	}
	return seqFinalize(s, query, qvec, fused, opts)
}

func seqComponents(s *Searcher, query string, qvec vector.Vector, opts Options) []fusion.Ranking {
	var rankings []fusion.Ranking
	if opts.Mode != VectorOnly {
		textOpts := index.TextOptions{Filters: opts.Filters}
		textOpts.Fields = []string{"title", "content"}
		if opts.SearchKeywordsField != "" {
			textOpts.Fields = append(textOpts.Fields, opts.SearchKeywordsField)
		}
		if opts.TitleBoost > 1 {
			textOpts.FieldWeights = map[string]float64{"title": opts.TitleBoost}
		}
		rankings = append(rankings, hitsToRanking(s.Index.SearchText(query, opts.TextN, textOpts)))
	}
	if opts.Mode != TextOnly {
		for _, field := range s.Index.VectorFields() {
			rankings = append(rankings, hitsToRanking(s.Index.SearchVector(field, qvec, opts.VectorK, opts.Filters)))
		}
	}
	return rankings
}

func seqFinalize(s *Searcher, query string, qvec vector.Vector, fused []fusion.Fused, opts Options) []Result {
	results := make([]Result, 0, len(fused))
	for _, f := range fused {
		doc, ok := s.Index.DocByID(f.ID)
		if !ok {
			continue
		}
		results = append(results, Result{
			ChunkID:  doc.ID,
			ParentID: doc.ParentID,
			Title:    doc.Fields["title"],
			Content:  doc.Fields["content"],
			Summary:  doc.Fields["summary"],
			Score:    f.Score,
		})
	}
	if s.Reranker == nil || opts.DisableSemanticRerank {
		return results
	}
	for i := range results {
		doc, _ := s.Index.DocByID(results[i].ChunkID)
		in := rerank.Input{
			ID:            results[i].ChunkID,
			Title:         results[i].Title,
			Content:       results[i].Content,
			ContentVector: doc.Vectors["contentVector"],
		}
		results[i].Score += s.Reranker.Score(query, qvec, in)
	}
	// The original O(n²) insertion sort, kept verbatim so the sort.Slice
	// replacement is proven against it.
	for i := 1; i < len(results); i++ {
		for j := i; j > 0; j-- {
			if results[j-1].Score > results[j].Score ||
				(results[j-1].Score == results[j].Score && results[j-1].ChunkID <= results[j].ChunkID) {
				break
			}
			results[j-1], results[j] = results[j], results[j-1]
		}
	}
	return results
}

func seqRelated(s *Searcher, ctx context.Context, query string, n int) ([]string, error) {
	resp, err := s.LLM.Complete(ctx, llm.BuildRelatedQueriesPrompt(query, n))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range splitSeqLines(resp.Content) {
		if line != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

func splitSeqLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			line := s[start:i]
			for len(line) > 0 && (line[0] == ' ' || line[0] == '\t' || line[0] == '\r') {
				line = line[1:]
			}
			for len(line) > 0 && (line[len(line)-1] == ' ' || line[len(line)-1] == '\t' || line[len(line)-1] == '\r') {
				line = line[:len(line)-1]
			}
			out = append(out, line)
			start = i + 1
		}
	}
	return out
}

// --- The determinism assertion. ---

// TestConcurrentPipelineMatchesSequentialReference asserts the acceptance
// criterion: the concurrent fan-out reproduces the sequential ranking
// exactly (byte-identical results) across every mode and expansion, for
// several fan-out widths.
func TestConcurrentPipelineMatchesSequentialReference(t *testing.T) {
	s := buildLargeSearcher(t)
	queries := []string{
		"bloccare la carta di credito",
		"sospendere la tessera",
		"come aprire un conto corrente",
		"ERR-2002 bonifico",
		"verificare il mutuo prima casa",
		"",
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"Hybrid", Options{}},
		{"TextOnly", Options{Mode: TextOnly}},
		{"VectorOnly", Options{Mode: VectorOnly}},
		{"HybridNoRerank", Options{DisableSemanticRerank: true}},
		{"HybridTitleBoost", Options{TitleBoost: 50}},
		{"QGA", Options{Expansion: QGA}},
		{"MQ1", Options{Expansion: MQ1}},
		{"MQ2", Options{Expansion: MQ2}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				s.Workers = workers
				for _, q := range queries {
					want, err := seqSearch(s, context.Background(), q, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.Search(context.Background(), q, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					wb, gb := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", got)
					if wb != gb {
						t.Fatalf("query %q: concurrent pipeline diverged from sequential reference\nseq: %s\ncon: %s", q, wb, gb)
					}
				}
			})
		}
	}
}

// --- Cancellation semantics. ---

// cancelOnStage cancels a context the moment a given stage reports.
type cancelOnStage struct {
	stage  string
	cancel context.CancelFunc
	mu     sync.Mutex
	seen   []string
}

func (c *cancelOnStage) ObserveStage(info pipeline.StageInfo) {
	c.mu.Lock()
	c.seen = append(c.seen, info.Stage)
	c.mu.Unlock()
	if info.Stage == c.stage {
		c.cancel()
	}
}

func TestSearchCancelledBeforeStart(t *testing.T) {
	s := buildLargeSearcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{
		{}, {Mode: TextOnly}, {Mode: VectorOnly},
		{Expansion: QGA}, {Expansion: MQ1}, {Expansion: MQ2},
	} {
		res, err := s.Search(ctx, "bloccare la carta", opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("opts %+v: err = %v", opts, err)
		}
		if res != nil {
			t.Fatalf("opts %+v: cancelled search returned results: %v", opts, res)
		}
	}
}

// TestSearchCancelledMidFlight cancels the context as successive stages
// complete: whatever the cut point, the search must surface ctx.Err() and
// no partial results.
func TestSearchCancelledMidFlight(t *testing.T) {
	cases := []struct {
		stage string
		opts  Options
	}{
		{pipeline.StageEmbed, Options{}},
		{pipeline.StageRetrieval, Options{}},
		{pipeline.StageFusion, Options{}},
		{pipeline.StageExpand, Options{Expansion: MQ1}},
		{pipeline.StageEmbed, Options{Expansion: MQ1}},
		{pipeline.StageRetrieval, Options{Expansion: MQ1}},
		{pipeline.StageFusion, Options{Expansion: MQ1}},
		{pipeline.StageExpand, Options{Expansion: QGA}},
		{pipeline.StageExpand, Options{Expansion: MQ2}},
		{pipeline.StageRetrieval, Options{Mode: VectorOnly}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-after-%s", tc.opts.Expansion, tc.stage), func(t *testing.T) {
			s := buildLargeSearcher(t)
			s.Workers = 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := &cancelOnStage{stage: tc.stage, cancel: cancel}
			s.Observer = obs
			res, err := s.Search(ctx, "bloccare la carta di credito", tc.opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled (stages seen: %v)", err, obs.seen)
			}
			if res != nil {
				t.Fatalf("cancelled search returned partial results: %d", len(res))
			}
		})
	}
}

// TestRerankLoopHonorsCancellation cancels from inside the reranker's own
// stage via a context that dies during iteration.
func TestRerankLoopHonorsCancellation(t *testing.T) {
	s := buildLargeSearcher(t)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the fusion stage has produced the candidate list;
	// the rerank stage must then refuse to run.
	s.Observer = &cancelOnStage{stage: pipeline.StageFusion, cancel: cancel}
	res, err := s.Search(ctx, "verificare il prestito personale", Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	cancel()
}

// TestSearchStagesReported checks a plain hybrid search reports the
// embed/retrieval/fusion/rerank stages exactly once each, with sane sizes.
func TestSearchStagesReported(t *testing.T) {
	s := buildLargeSearcher(t)
	rec := &recordingObserver{}
	s.Observer = rec
	res, err := s.Search(context.Background(), "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.counts()
	for _, stage := range []string{pipeline.StageEmbed, pipeline.StageRetrieval, pipeline.StageFusion, pipeline.StageRerank} {
		if counts[stage] != 1 {
			t.Fatalf("stage %q reported %d times (counts=%v)", stage, counts[stage], counts)
		}
	}
	ret := rec.byStage(pipeline.StageRetrieval)[0]
	// text + titleVector + contentVector legs.
	if ret.In != 3 || ret.Out == 0 {
		t.Fatalf("retrieval sizes = %+v", ret)
	}
	rr := rec.byStage(pipeline.StageRerank)[0]
	if rr.In != len(res) || rr.Out != len(res) {
		t.Fatalf("rerank sizes = %+v for %d results", rr, len(res))
	}
}

type recordingObserver struct {
	mu    sync.Mutex
	infos []pipeline.StageInfo
}

func (r *recordingObserver) ObserveStage(info pipeline.StageInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos = append(r.infos, info)
}

func (r *recordingObserver) counts() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int{}
	for _, i := range r.infos {
		out[i.Stage]++
	}
	return out
}

func (r *recordingObserver) byStage(stage string) []pipeline.StageInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []pipeline.StageInfo
	for _, i := range r.infos {
		if i.Stage == stage {
			out = append(out, i)
		}
	}
	return out
}

// TestMQ1EmbedsOriginalQueryOnce guards the satellite fix: MQ1 must embed
// the original query exactly once, reusing the vector for both its
// component searches and the final rerank.
func TestMQ1EmbedsOriginalQueryOnce(t *testing.T) {
	s := buildLargeSearcher(t)
	ce := &countingEmbedder{CtxEmbedder: s.Embedder}
	s.Embedder = ce
	if _, err := s.Search(context.Background(), "bloccare la carta", Options{Expansion: MQ1}); err != nil {
		t.Fatal(err)
	}
	if n := ce.count("bloccare la carta"); n != 1 {
		t.Fatalf("original query embedded %d times, want 1", n)
	}
}

type countingEmbedder struct {
	embedding.CtxEmbedder
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingEmbedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[text]++
	c.mu.Unlock()
	return c.CtxEmbedder.EmbedCtx(ctx, text)
}

func (c *countingEmbedder) count(text string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[text]
}
