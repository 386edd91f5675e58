// Package search implements UniAsk's retrieval module (§4): Hybrid Search
// with Semantic reranking (HSS). Full-text BM25 retrieves the top n
// documents, vector search retrieves the top K nearest chunks for each
// vector field, Reciprocal Rank Fusion merges the rankings, and the final
// relevance score adds a semantic-reranker score to the RRF score.
//
// Every query runs one plan: expand → embed → legs → fuse → rerank. The
// expansion (Table 3) only decides the texts the plan retrieves with — the
// query alone (HSS), the query plus a context-free LLM answer (QGA), or the
// query plus LLM-generated related queries (MQ1; MQ2 folds them into their
// concatenation and mean embedding). Each (text, vector) pair contributes
// its BM25 and per-field ANN legs, and the legs run as one concurrent
// fan-out over a bounded worker pool (see internal/pipeline) that joins
// before RRF in component order, so the fused ranking is byte-identical to
// a sequential execution. Every stage honors context cancellation, reports
// latency and sizes through a pipeline.Observer, and sheds a failed
// dependency (expansion, embedding, one leg) instead of failing the query.
//
// The plan covers every retrieval variant the paper ablates in Tables 2-4:
// text-only and vector-only modes, the QGA/MQ1/MQ2 query expansions,
// multiplicative title boosting (T5/T50/T500), and searching over the
// LLM-keyword enrichment fields (HSS-KT/HSS-KTC).
package search

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"uniask/internal/embedding"
	"uniask/internal/fusion"
	"uniask/internal/index"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/rerank"
	"uniask/internal/resilience"
	"uniask/internal/trace"
	"uniask/internal/vector"
)

// Degradation reports which parts of a query were shed to keep it
// available. A degraded search still returns a ranking — computed from the
// components that survived — and the caller (the engine, the server, the
// dashboard) surfaces the reduced fidelity instead of an error.
type Degradation struct {
	// VectorSkipped means query embedding failed, so the vector legs (and
	// the semantic component of reranking) were shed: BM25-only retrieval.
	VectorSkipped bool
	// ExpansionSkipped means the LLM query-expansion call failed, so the
	// search ran without expansion.
	ExpansionSkipped bool
	// ComponentsShed counts retrieval legs that failed and were dropped
	// from fusion.
	ComponentsShed int
	// ShardsDown counts index shards that could not be reached (every
	// replica of the shard unreachable): the ranking was computed over the
	// surviving shards' documents only. Partial results, not an error —
	// exactly like the other degradations.
	ShardsDown int
	// RewriteSkipped means the history-aware query rewrite failed (breaker
	// open, timeout), so retrieval ran on the raw turn query instead of the
	// standalone rewritten one. Set by the conversational engine path, not
	// by the Searcher itself.
	RewriteSkipped bool
}

// Degraded reports whether anything was shed.
func (d Degradation) Degraded() bool {
	return d.VectorSkipped || d.ExpansionSkipped || d.ComponentsShed > 0 || d.ShardsDown > 0 || d.RewriteSkipped
}

// Parts names the shed parts for logs, metrics and API responses.
func (d Degradation) Parts() []string {
	var out []string
	if d.RewriteSkipped {
		out = append(out, "rewrite")
	}
	if d.VectorSkipped {
		out = append(out, "vector")
	}
	if d.ExpansionSkipped {
		out = append(out, "expansion")
	}
	if d.ComponentsShed > 0 {
		out = append(out, "retrieval-components")
	}
	if d.ShardsDown > 0 {
		out = append(out, "shards")
	}
	return out
}

func (d *Degradation) merge(o Degradation) {
	d.VectorSkipped = d.VectorSkipped || o.VectorSkipped
	d.ExpansionSkipped = d.ExpansionSkipped || o.ExpansionSkipped
	d.ComponentsShed += o.ComponentsShed
	// Max, not sum: every retrieval leg fans out over the same shards, so
	// the same dead shard would otherwise be double-counted per leg.
	if o.ShardsDown > d.ShardsDown {
		d.ShardsDown = o.ShardsDown
	}
	d.RewriteSkipped = d.RewriteSkipped || o.RewriteSkipped
}

// Mode selects which retrieval components run.
type Mode int

// Retrieval modes.
const (
	// Hybrid runs text + vector search fused with RRF (the deployed mode).
	Hybrid Mode = iota
	// TextOnly runs BM25 full-text search alone (Table 2 ablation).
	TextOnly
	// VectorOnly runs ANN vector search alone (Table 2 ablation).
	VectorOnly
)

// Expansion selects a query-expansion strategy (Table 3).
type Expansion int

// Query-expansion strategies.
const (
	// NoExpansion is the deployed configuration.
	NoExpansion Expansion = iota
	// QGA asks the LLM for a context-free answer and retrieves with the
	// query expanded by that answer.
	QGA
	// MQ1 asks the LLM for related queries and fuses one hybrid search per
	// query.
	MQ1
	// MQ2 asks the LLM for related queries, then runs one hybrid search on
	// the text concatenation and the averaged embedding of all queries.
	MQ2
)

// finalN is the fused ranking length, and relatedQueries how many related
// queries MQ1/MQ2 request.
const (
	finalN         = 50
	relatedQueries = 3
)

// Options configures a search call. The zero value gives the deployed HSS
// configuration of §7.
type Options struct {
	// TextN is the full-text result count (default 50).
	TextN int
	// VectorK is the ANN neighbor count per vector field (default 15; the
	// paper swept K over {3,...,50} and picked 15).
	VectorK int
	// RRFC is the RRF constant (default 60).
	RRFC int
	// Mode selects hybrid/text/vector retrieval.
	Mode Mode
	// DisableSemanticRerank turns the reranker off (plain hybrid search).
	DisableSemanticRerank bool
	// TitleBoost multiplies the BM25 weight of title matches (0 or 1 =
	// no boost; the paper tried 5, 50, 500).
	TitleBoost float64
	// Expansion selects a query-expansion variant.
	Expansion Expansion
	// SearchKeywordsField includes the LLM-keyword enrichment field among
	// the searchable text fields (HSS-KT / HSS-KTC; the field must exist in
	// the index schema).
	SearchKeywordsField string
	// Filters restrict results by exact match on filterable fields.
	Filters []index.Filter
}

func (o Options) withDefaults() Options {
	if o.TextN <= 0 {
		o.TextN = 50
	}
	if o.VectorK <= 0 {
		o.VectorK = 15
	}
	if o.RRFC <= 0 {
		o.RRFC = fusion.DefaultC
	}
	return o
}

// Result is one retrieved chunk.
type Result struct {
	// ChunkID is the index chunk identifier.
	ChunkID string
	// ParentID is the KB document the chunk belongs to.
	ParentID string
	// Title and Content are the retrievable fields the answer and the
	// reranker read.
	Title   string
	Content string
	// Score is the final relevance score (RRF + semantic rerank for HSS).
	Score float64
}

// Searcher executes queries against an index.
type Searcher struct {
	// Index is the chunk index to search: a plain *index.Index, the
	// segmented store, or the sharded facade (internal/shard) — the
	// Searcher is agnostic, it only needs the Queryable surface. StatsKey()
	// keys the query cache either way: it rotates exactly when the store
	// publishes new BM25 statistics, and the delete journal (DeletesSince)
	// carries tombstoned chunk ids for precise eviction in between.
	Index index.Queryable
	// Embedder produces query embeddings for vector search; an error sheds
	// the vector legs.
	Embedder embedding.CtxEmbedder
	// Reranker is the semantic reranking model (nil disables reranking).
	Reranker *rerank.Reranker
	// LLM serves the query-expansion prompts (required only when an
	// Expansion is requested).
	LLM llm.Client
	// Observer receives per-stage reports (nil = discard).
	Observer pipeline.Observer
	// Workers bounds the retrieval fan-out (0 = pipeline.DefaultWorkers).
	Workers int
	// Cache memoizes results per (query, options) at a given stats
	// snapshot, with singleflight dedup of concurrent identical queries and
	// precise eviction of deleted chunks (nil = no caching).
	Cache *QueryCache
}

func (s *Searcher) obs() pipeline.Observer { return pipeline.OrNop(s.Observer) }

func (s *Searcher) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return pipeline.DefaultWorkers()
}

// Search retrieves the chunks most relevant to query. With a Cache set,
// repeated queries at an unchanged stats snapshot are served from memory, and
// concurrent identical queries collapse into one execution. The returned
// slice is the caller's to modify.
func (s *Searcher) Search(ctx context.Context, query string, opts Options) ([]Result, error) {
	hits, err := s.SearchDegraded(ctx, query, opts)
	return hits.Own(), err
}

// Hits is one search's outcome: the ranking, the degradation it was
// computed under and, on a query-cache hit, the cache entry it came from.
type Hits struct {
	// Results is the ranking. On a cache hit it is the cache entry's own
	// slice, shared with every other hit on it: read it, never modify it.
	// Own returns a slice the caller may modify.
	Results []Result
	// Degradation reports what was shed; cached entries replay the
	// degradation they were computed under.
	Degradation Degradation
	entry       *cacheEntry // nil unless Results is a cache entry's
}

// Own returns the results as a slice the caller may modify: a copy on a
// cache hit, Results itself otherwise.
func (h Hits) Own() []Result {
	if h.entry == nil {
		return h.Results
	}
	return copyResults(h.Results)
}

// Render returns render(h.Results). On a cache hit the bytes are rendered
// once per cache entry, by the first hit that asks, and shared by every
// later hit on the entry until it is evicted, refreshed or purged; a miss,
// an uncached searcher and a degraded result render per call. The slot
// holds one rendering, so every caller must pass the same render function
// (the server's /api/search body), and nobody may modify the bytes.
func (h Hits) Render(render func([]Result) []byte) []byte {
	e := h.entry
	if e == nil {
		return render(h.Results)
	}
	e.rendered.Do(func() { e.body = render(e.results) })
	return e.body
}

// SearchDegraded is Search plus the degradation report — which parts of the
// query (vector legs, expansion, individual retrieval components) were shed
// to keep it available — without the defensive copy: see Hits.
func (s *Searcher) SearchDegraded(ctx context.Context, query string, opts Options) (Hits, error) {
	opts = opts.withDefaults()
	if s.Cache == nil {
		res, deg, err := s.run(ctx, query, opts)
		return Hits{Results: res, Degradation: deg}, err
	}
	// Drain the delete journal first so a tombstoned chunk is never served
	// from cache, then key the lookup on the published stats snapshot. The
	// reranker weight version participates in the key: a click-feedback
	// recalibration between two identical queries must not replay a ranking
	// scored under the old weights.
	s.Cache.SyncDeletes(s.Index)
	snap := s.Index.StatsKey()
	_, delMark, _ := s.Index.DeletesSince(^uint64(0))
	rv := s.rerankVersion(opts)
	var keyBuf [256]byte
	kb := appendCacheKey(keyBuf[:0], query, opts, rv)
	if e, ok := s.Cache.lookup(kb, snap); ok {
		return Hits{Results: e.results, Degradation: e.deg, entry: e}, nil
	}
	key := string(kb)
	f, leader := s.Cache.join(key, snap)
	if leader {
		res, deg, err := s.run(ctx, query, opts)
		// Re-check at store time: a stats publication racing this query must
		// not leave a stale entry behind, and a delete racing it must not
		// leave an entry the already-advanced journal cursor would never
		// evict. A rerank recalibration racing the query invalidates it the
		// same way: the scores may mix old and new weights. Degraded results
		// are not cached either: the dependency may already be healthy
		// again, and a cache must not pin reduced fidelity for a whole
		// snapshot.
		_, delNow, _ := s.Index.DeletesSince(^uint64(0))
		s.Cache.complete(key, snap, f, res, deg, err,
			err == nil && !deg.Degraded() && s.Index.StatsKey() == snap &&
				delNow == delMark && s.rerankVersion(opts) == rv)
		return Hits{Results: res, Degradation: deg}, err
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return Hits{}, ctx.Err()
	}
	if f.err != nil {
		// The leader failed (possibly on its own canceled context); run
		// independently rather than propagating a foreign error.
		res, deg, err := s.run(ctx, query, opts)
		return Hits{Results: res, Degradation: deg}, err
	}
	return Hits{Results: copyResults(f.results), Degradation: f.deg}, nil
}

// rerankVersion is the reranker weight version a query's ranking depends
// on (0 when reranking is off for the query — weight changes then cannot
// affect it).
func (s *Searcher) rerankVersion(opts Options) uint64 {
	if s.Reranker == nil || opts.DisableSemanticRerank {
		return 0
	}
	return s.Reranker.Version()
}

// run executes one search with already-defaulted options, bypassing the
// cache. Every expansion is the same plan: expand the query into texts,
// embed them, run one set of retrieval legs per (text, vector) pair, fuse
// every leg with RRF, and rerank against the first text and its vector.
// MQ2 differs only in folding its texts into one: their concatenation,
// paired with the mean of the vectors that survived embedding.
func (s *Searcher) run(ctx context.Context, query string, opts Options) ([]Result, Degradation, error) {
	texts, deg, err := s.expand(ctx, query, opts)
	if err != nil {
		return nil, deg, err
	}
	vecs, d, err := s.embedMany(ctx, texts, opts)
	deg.merge(d)
	if err != nil {
		return nil, deg, err
	}
	// A failed MQ2 expansion runs the plain query as is: Mean renormalizes,
	// so folding even a single vector would perturb the plain ranking.
	if opts.Expansion == MQ2 && !deg.ExpansionSkipped {
		var mean vector.Vector
		if live := slices.DeleteFunc(vecs, func(v vector.Vector) bool { return v == nil }); len(live) > 0 {
			mean = embedding.Mean(live, s.Embedder.Dim())
		}
		texts, vecs = []string{strings.Join(texts, " ")}, []vector.Vector{mean}
	}
	var comps []component
	for i := range texts {
		comps = append(comps, s.components(texts[i], vecs[i], opts)...)
	}
	rankings, d, err := s.runComponents(ctx, comps)
	deg.merge(d)
	if err != nil {
		return nil, deg, err
	}
	fused, err := s.fuse(ctx, rankings, opts)
	if err != nil {
		return nil, deg, err
	}
	res, d, err := s.finalize(ctx, texts[0], vecs[0], fused, opts)
	deg.merge(d)
	return res, deg, err
}

// expand returns the texts the plan retrieves with: the query alone, the
// query extended by a context-free LLM answer (QGA), or the query followed
// by LLM-generated related queries (MQ1, MQ2). A failed expansion call,
// while the caller is still alive, is shed and the plan runs on the plain
// query instead of aborting.
func (s *Searcher) expand(ctx context.Context, query string, opts Options) ([]string, Degradation, error) {
	var deg Degradation
	var req llm.Request
	out := 1
	switch opts.Expansion {
	case QGA:
		req = llm.BuildDirectAnswerPrompt(query)
	case MQ1, MQ2:
		req, out = llm.BuildRelatedQueriesPrompt(query, relatedQueries), relatedQueries
	default:
		return []string{query}, deg, nil
	}
	var resp llm.Response
	err := pipeline.Run(ctx, s.obs(), pipeline.StageExpand, 1, func(ctx context.Context) (int, error) {
		var err error
		resp, err = s.LLM.Complete(ctx, req)
		return out, err
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, deg, ctxErr
		}
		s.shed(ctx, "expansion", 1, err)
		deg.ExpansionSkipped = true
		return []string{query}, deg, nil
	}
	if opts.Expansion == QGA {
		return []string{query + " " + resp.Content}, deg, nil
	}
	texts := []string{query}
	for _, line := range strings.Split(resp.Content, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			texts = append(texts, line)
		}
	}
	return texts, deg, nil
}

// embedOutcome carries one text's embedding result through the tolerant
// fan-out: the error rides in the value so a failed embedding does not
// abort its siblings.
type embedOutcome struct {
	vec vector.Vector
	err error
}

// embedMany embeds the texts as one observed stage, tolerating per-text
// failures: a failed embedding yields a nil vector (that text then
// contributes text legs only) and is shed. When every embedding fails the
// stage reports the first error and the vector side is skipped — or, for
// vector-only retrieval, which has nothing to degrade to, the search errors.
// Caller cancellation always errors.
func (s *Searcher) embedMany(ctx context.Context, texts []string, opts Options) ([]vector.Vector, Degradation, error) {
	var (
		deg      Degradation
		outcomes []embedOutcome
	)
	err := pipeline.Run(ctx, s.obs(), pipeline.StageEmbed, len(texts), func(ctx context.Context) (int, error) {
		var err error
		outcomes, err = pipeline.Map(ctx, s.workers(), len(texts), func(ctx context.Context, i int) (embedOutcome, error) {
			v, err := s.Embedder.EmbedCtx(ctx, texts[i])
			if err != nil && ctx.Err() != nil {
				return embedOutcome{}, ctx.Err()
			}
			return embedOutcome{vec: v, err: err}, nil
		})
		if err != nil {
			return 0, err
		}
		ok, firstErr := 0, error(nil)
		for _, o := range outcomes {
			if o.err == nil {
				ok++
			} else if firstErr == nil {
				firstErr = o.err
			}
		}
		if ok == 0 {
			return 0, firstErr
		}
		return ok, nil
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, deg, ctxErr
		}
		if opts.Mode == VectorOnly {
			return nil, deg, fmt.Errorf("search: embed: %w", err)
		}
		deg.VectorSkipped = true
	}
	vecs := make([]vector.Vector, len(texts))
	for i, o := range outcomes {
		if o.err != nil {
			s.shed(ctx, "embedding "+strconv.Itoa(i), 1, o.err)
			continue
		}
		vecs[i] = o.vec
	}
	return vecs, deg, nil
}

// shed reports n dropped units of work to the observer under the synthetic
// "degraded" stage, with the cause. The context carries the active trace, so
// a traced request records each shed as a degraded span.
func (s *Searcher) shed(ctx context.Context, what string, n int, cause error) {
	pipeline.Observe(ctx, s.obs(), pipeline.StageInfo{
		Stage: pipeline.StageDegraded, In: n,
		Err: fmt.Errorf("search: shed %s: %w", what, cause),
	})
}

// partialQueryable is the optional context-aware, partial-result query
// surface. The sharded facade implements it to emit per-shard fan-out spans
// under the request's trace and because its shards can genuinely fail
// (remote shards): the int reports how many shards were unreachable for the
// call, which the searcher folds into Degradation.ShardsDown so callers see
// partial results flagged as degraded rather than silently complete. A
// plain index.Queryable (a single local store) runs without either.
type partialQueryable interface {
	SearchTextPartial(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int)
	SearchVectorPartial(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int)
}

// searchText routes one BM25 leg through the richer surface when the index
// offers it, reporting how many shards the leg lost (0 for local indexes,
// which cannot lose any).
func (s *Searcher) searchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int) {
	if pq, ok := s.Index.(partialQueryable); ok {
		return pq.SearchTextPartial(ctx, query, n, opts)
	}
	return s.Index.SearchText(query, n, opts), 0
}

// searchVector routes one ANN leg the same way.
func (s *Searcher) searchVector(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int) {
	if pq, ok := s.Index.(partialQueryable); ok {
		return pq.SearchVectorPartial(ctx, field, q, k, filters)
	}
	return s.Index.SearchVector(field, q, k, filters), 0
}

// component is one independent retrieval leg: BM25 full-text search or one
// ANN search over a vector field. Components are safe to run concurrently;
// a component that fails (a remote shard, a poisoned read) is retried once
// and then shed from fusion rather than failing the query.
type component struct {
	// kind names the leg for degradation reports ("text", "vector:field").
	kind string
	// run executes the leg, additionally reporting how many index shards
	// the leg could not reach (partial coverage).
	run func(ctx context.Context) (fusion.Ranking, int, error)
}

// componentPolicy is the per-leg retry budget: one immediate retry, no
// backoff worth speaking of — a leg that fails twice is shed, the query
// moves on.
var componentPolicy = resilience.Policy{MaxAttempts: 2, BaseDelay: 1, MaxDelay: 1, Jitter: 0.01}

// components lists the retrieval legs for one (query, vector) pair, in the
// deterministic order RRF fuses them: text first, then vector fields in
// the index's sorted field order. A nil qvec (degraded embedding) yields no
// vector legs.
func (s *Searcher) components(query string, qvec vector.Vector, opts Options) []component {
	var comps []component
	if opts.Mode != VectorOnly {
		textOpts := index.TextOptions{Filters: opts.Filters}
		textOpts.Fields = []string{"title", "content"}
		if opts.SearchKeywordsField != "" {
			textOpts.Fields = append(textOpts.Fields, opts.SearchKeywordsField)
		}
		if opts.TitleBoost > 1 {
			textOpts.FieldWeights = map[string]float64{"title": opts.TitleBoost}
		}
		comps = append(comps, component{kind: "text", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			hits, down := s.searchText(ctx, query, opts.TextN, textOpts)
			return hitsToRanking(hits), down, nil
		}})
	}
	if opts.Mode != TextOnly && qvec != nil {
		for _, field := range s.Index.VectorFields() {
			field := field
			comps = append(comps, component{kind: "vector:" + field, run: func(ctx context.Context) (fusion.Ranking, int, error) {
				hits, down := s.searchVector(ctx, field, qvec, opts.VectorK, opts.Filters)
				return hitsToRanking(hits), down, nil
			}})
		}
	}
	return comps
}

// runComponent executes one leg under the per-component retry policy, with
// panics converted to errors so a poisoned leg sheds instead of crashing
// the process. On a traced request the leg is a live "component" span: the
// per-shard fan-out spans nest under it, and its retry attempts attach as
// events.
func runComponent(ctx context.Context, c component) (r fusion.Ranking, down int, err error) {
	ctx, sp := trace.Start(ctx, "component", trace.A("kind", c.kind))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	// DoValue is single-valued; thread the shard-down count alongside the
	// ranking through one carrier struct.
	type legResult struct {
		ranking fusion.Ranking
		down    int
	}
	out, err := resilience.DoValue(ctx, componentPolicy, func(ctx context.Context) (_ legResult, opErr error) {
		defer func() {
			if p := recover(); p != nil {
				opErr = fmt.Errorf("search: component %s panicked: %v", c.kind, p)
			}
		}()
		r, down, err := c.run(ctx)
		return legResult{ranking: r, down: down}, err
	})
	if out.down > 0 {
		sp.SetAttr("shardsDown", strconv.Itoa(out.down))
	}
	return out.ranking, out.down, err
}

// compOutcome carries a leg's ranking or its failure through the fan-out
// without aborting sibling legs.
type compOutcome struct {
	ranking fusion.Ranking
	down    int
	err     error
}

// runComponents executes the retrieval legs over the bounded worker pool
// as one observed "retrieval" stage. Results keep component order, so the
// rankings slice is identical to a sequential loop's. Legs that fail after
// their retry are shed: fusion proceeds over the survivors (an empty
// ranking keeps positional order stable) and the shed legs are reported as
// degradation. Only when every leg fails — or the caller is cancelled —
// does the stage error.
func (s *Searcher) runComponents(ctx context.Context, comps []component) ([]fusion.Ranking, Degradation, error) {
	var (
		rankings []fusion.Ranking
		deg      Degradation
	)
	err := pipeline.Run(ctx, s.obs(), pipeline.StageRetrieval, len(comps), func(ctx context.Context) (int, error) {
		outcomes, err := pipeline.Map(ctx, s.workers(), len(comps), func(ctx context.Context, i int) (compOutcome, error) {
			if err := ctx.Err(); err != nil {
				return compOutcome{}, err
			}
			r, down, err := runComponent(ctx, comps[i])
			return compOutcome{ranking: r, down: down, err: err}, nil
		})
		if err != nil {
			return 0, err
		}
		rankings = make([]fusion.Ranking, len(outcomes))
		var firstErr error
		failed := 0
		for i, o := range outcomes {
			// The same dead shards degrade every leg, so the report takes the
			// worst leg's count rather than summing the fan-out.
			if o.down > deg.ShardsDown {
				deg.ShardsDown = o.down
			}
			if o.err != nil {
				failed++
				if firstErr == nil {
					firstErr = o.err
				}
				s.shed(ctx, "component "+comps[i].kind, 1, o.err)
				rankings[i] = fusion.Ranking{}
				continue
			}
			rankings[i] = o.ranking
		}
		if failed > 0 && failed == len(outcomes) {
			return 0, fmt.Errorf("search: all %d retrieval components failed: %w", failed, firstErr)
		}
		deg.ComponentsShed = failed
		total := 0
		for _, r := range rankings {
			total += len(r)
		}
		return total, nil
	})
	if err != nil {
		return nil, deg, err
	}
	return rankings, deg, nil
}

// fuse merges the component rankings with RRF and truncates to finalN, as
// one observed "fusion" stage.
func (s *Searcher) fuse(ctx context.Context, rankings []fusion.Ranking, opts Options) ([]fusion.Fused, error) {
	in := 0
	for _, r := range rankings {
		in += len(r)
	}
	var fused []fusion.Fused
	err := pipeline.Run(ctx, s.obs(), pipeline.StageFusion, in, func(context.Context) (int, error) {
		fused = fusion.RRF(rankings, opts.RRFC)
		if len(fused) > finalN {
			fused = fused[:finalN]
		}
		return len(fused), nil
	})
	if err != nil {
		return nil, err
	}
	return fused, nil
}

// finalize materializes the fused hits and applies semantic reranking: the
// final score is the RRF score plus the reranker score, re-sorted. The hits
// are fetched once, in one batched read (on a sharded index: one round trip
// per shard, under the request's deadline), and each hit's content vector —
// the unit-length view of the vector index's arena the document carries —
// rides along into the one rerank pass. An id the index no longer holds (deleted
// since retrieval) is skipped quietly; a shard that cannot be reached for
// the fetch is reported as Degradation.ShardsDown, because the ranking is
// then missing that shard's hits and must not be cached as complete.
func (s *Searcher) finalize(ctx context.Context, query string, qvec vector.Vector, fused []fusion.Fused, opts Options) ([]Result, Degradation, error) {
	var deg Degradation
	if err := ctx.Err(); err != nil {
		return nil, deg, err
	}
	ids := make([]string, len(fused))
	for i, f := range fused {
		ids[i] = f.ID
	}
	docs, down := s.Index.DocsByID(ctx, ids)
	if err := ctx.Err(); err != nil {
		return nil, deg, err
	}
	if down > 0 {
		deg.ShardsDown = down
		s.shed(ctx, "document fetch", down, fmt.Errorf("%d shard(s) unreachable", down))
	}
	results := make([]Result, 0, len(fused))
	contentVecs := make([]vector.Vector, 0, len(fused))
	for i, doc := range docs {
		if doc.ID == "" {
			continue
		}
		results = append(results, Result{
			ChunkID:  doc.ID,
			ParentID: doc.ParentID,
			Title:    doc.Fields["title"],
			Content:  doc.Fields["content"],
			Score:    fused[i].Score,
		})
		contentVecs = append(contentVecs, doc.Vectors["contentVector"])
	}
	if s.Reranker == nil || opts.DisableSemanticRerank {
		return results, deg, nil
	}
	err := pipeline.Run(ctx, s.obs(), pipeline.StageRerank, len(results), func(ctx context.Context) (int, error) {
		ins := make([]rerank.Input, len(results))
		for i, r := range results {
			ins[i] = rerank.Input{Title: r.Title, Content: r.Content, ContentVector: contentVecs[i]}
		}
		scored, err := s.Reranker.Rerank(ctx, query, qvec, ins)
		if err != nil {
			return 0, err
		}
		for i, sc := range scored {
			results[i].Score += sc
		}
		sortResults(results)
		return len(results), nil
	})
	if err != nil {
		return nil, deg, err
	}
	return results, deg, nil
}

func hitsToRanking(hits []index.Hit) fusion.Ranking {
	r := make(fusion.Ranking, len(hits))
	for i, h := range hits {
		r[i] = h.ID
	}
	return r
}

// sortResults orders by score descending, ties broken by ChunkID ascending
// for determinism.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ChunkID < rs[j].ChunkID
	})
}

// ParentRanking collapses a chunk ranking into a KB-document ranking,
// keeping each parent's best-ranked occurrence — the document list shown to
// the user and evaluated against the ground truth.
func ParentRanking(results []Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range results {
		if seen[r.ParentID] {
			continue
		}
		seen[r.ParentID] = true
		out = append(out, r.ParentID)
	}
	return out
}
