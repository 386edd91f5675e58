// Package core assembles the UniAsk engine — the paper's contribution — out
// of the substrate packages: the ingestion/indexing pipeline that builds
// the search index from the knowledge base, and the user query flow of
// Figure 1 (content filter → hybrid retrieval with semantic reranking →
// grounded generation → guardrails), returning a natural-language answer
// with citations together with the retrieved document list.
//
// The query flow runs as an instrumented stage pipeline: each Figure-1
// stage honors context cancellation and reports its latency and sizes
// through a pipeline.Observer (see SetObserver), which the monitoring
// layer uses for the per-stage dashboard of §9.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"uniask/internal/embedding"
	"uniask/internal/generation"
	"uniask/internal/guardrails"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/remote"
	"uniask/internal/rerank"
	"uniask/internal/resilience"
	"uniask/internal/search"
	"uniask/internal/shard"
	"uniask/internal/trace"
)

// ResilienceConfig parameterizes the fault-tolerance layer wrapped around
// the engine's remote-shaped dependencies (the chat-completion LLM and the
// embedding service). The zero value enables the layer with library
// defaults: 3 attempts with jittered capped-exponential backoff, and a
// per-dependency circuit breaker (5 consecutive failures open it for 5s).
type ResilienceConfig struct {
	// LLMPolicy is the retry policy for chat completions.
	LLMPolicy resilience.Policy
	// LLMBreaker configures the LLM circuit breaker (Name forced to "llm").
	LLMBreaker resilience.BreakerConfig
	// EmbedPolicy is the retry policy for query embeddings.
	EmbedPolicy resilience.Policy
	// EmbedBreaker configures the embedding breaker (Name forced to
	// "embedding").
	EmbedBreaker resilience.BreakerConfig
}

// Config assembles an engine; the public uniask.Config is this type. The
// zero value reproduces the paper's deployed configuration: 512-token
// chunks, m=4 context chunks, ROUGE-L guardrail threshold 0.15, hybrid
// search with n=50/K=15/c=60 and semantic reranking. Knobs owned by another
// package (Indexer, Guardrails, Segment, Trace) are carried as that
// package's config struct, so each is declared and documented once.
type Config struct {
	// LLM is the chat-completion backend (defaults to the simulator with
	// Table-5 calibration).
	LLM llm.Client
	// Lexicon is the term→concept mapping for the synthetic embedder and
	// the simulator (nil is allowed). BuildFromCorpus and
	// uniask.NewFromCorpus fill it from the corpus when unset.
	Lexicon embedding.Lexicon
	// Indexer configures chunking and metadata enrichment.
	Indexer indexer.Config
	// Guardrails configures the answer-validation pipeline.
	Guardrails guardrails.Config
	// SearchWorkers bounds the retrieval fan-out: BM25 plus one ANN search
	// per vector field, and the per-shard scatter (0 = one per CPU, 1 =
	// fully sequential).
	SearchWorkers int
	// ShardCount splits the index into N hash-routed shards searched in
	// parallel and merged deterministically (see internal/shard). 0 or 1
	// keeps the monolithic index — exactly today's behavior, no facade in
	// the path.
	ShardCount int
	// RemoteShards lists shard-server endpoints (host:port, see
	// cmd/uniask-shard). When non-empty the facade's shards live on those
	// servers instead of in-process: each of the ShardCount logical shards
	// is placed on RemoteReplication distinct endpoints by consistent
	// hashing, reads hedge across replicas, and every endpoint is guarded
	// by a circuit breaker surfaced through Breakers(). Rankings stay
	// byte-identical to the in-process (and monolithic) topology. The shard
	// servers must run the same schema/analyzer configuration. With
	// RemoteShards set, ShardCount defaults to len(RemoteShards).
	RemoteShards []string
	// RemoteReplication is how many endpoints host each shard (default 2,
	// clamped to len(RemoteShards)).
	RemoteReplication int
	// Segment tunes every store's write path (memtable bound, compaction
	// fan-in); with RemoteShards set the shard servers' own flags apply.
	Segment index.SegmentConfig
	// QueryCacheCapacity sizes the snapshot-keyed query-result cache
	// (0 = search.DefaultQueryCacheCapacity; negative disables caching).
	QueryCacheCapacity int
	// QueryCache, when set, is used as the searcher's result cache instead
	// of allocating one from QueryCacheCapacity. Multi-tenant serving
	// injects each tenant engine's partition from a shared
	// search.CachePool here, so one tenant's traffic cannot evict
	// another's entries.
	QueryCache *search.QueryCache
	// Resilience configures retries and circuit breakers around the LLM and
	// embedding dependencies (zero value = enabled with defaults).
	Resilience ResilienceConfig
	// LLMMiddleware, when set, wraps the LLM client before the resilience
	// decorator — the seam the chaos harness uses to inject faults between
	// the retry layer and the backend.
	LLMMiddleware func(llm.Client) llm.Client
	// EmbedderMiddleware likewise wraps the query embedder before its
	// resilience decorator.
	EmbedderMiddleware func(embedding.CtxEmbedder) embedding.CtxEmbedder
	// Tracer, when set, is used instead of constructing one from Trace.
	// Multi-tenant serving shares one tracer (and so one /api/traces store)
	// across every tenant engine; spans carry the tenant attribute so
	// per-tenant slices stay queryable.
	Tracer *trace.Tracer
	// Trace configures the tracer behind /api/traces. The engine adds one
	// rule to the package's own: a negative Trace.Capacity disables tracing
	// entirely — no tracer, no per-request spans.
	Trace trace.Config
}

// NewTracer returns the tracer an engine built from cfg records into: the
// injected Tracer when set, nil when Trace.Capacity is negative, otherwise a
// fresh one configured by Trace.
func (cfg Config) NewTracer() *trace.Tracer {
	switch {
	case cfg.Tracer != nil:
		return cfg.Tracer
	case cfg.Trace.Capacity < 0:
		return nil
	}
	return trace.New(cfg.Trace)
}

// storeConfig is the store configuration New builds and LoadIndex rebuilds:
// a monolithic engine uses its Index and Segment halves, a sharded one the
// whole value.
func (cfg Config) storeConfig() shard.Config {
	return shard.Config{
		Shards:  cfg.ShardCount,
		Index:   index.Config{Schema: indexer.Schema()},
		Segment: cfg.Segment,
		Workers: cfg.SearchWorkers,
	}
}

// Engine is a fully assembled UniAsk instance.
type Engine struct {
	cfg Config
	obs pipeline.Observer
	// Index is the chunk store: one segmented LSM-style store
	// (*index.Segmented) when Config.ShardCount <= 1, otherwise the
	// *shard.Sharded facade holding one segmented store per shard (see
	// Sharded()). All layers program against the Repository surface.
	Index     index.Repository
	Searcher  *search.Searcher
	Generator *generation.Generator
	Guards    *guardrails.Pipeline
	Embedder  *embedding.Synth
	Client    llm.Client

	// LLMBreaker and EmbedBreaker guard the two remote-shaped dependencies.
	LLMBreaker   *resilience.Breaker
	EmbedBreaker *resilience.Breaker

	// Tracer owns the per-request span recording and the bounded trace
	// store behind /api/traces (nil when Config.Trace.Capacity < 0; every
	// trace method is nil-safe, so callers never guard).
	Tracer *trace.Tracer

	notifyMu      sync.Mutex
	breakerNotify func(name, from, to string)
}

// New creates an engine with an empty index; feed it through IndexCorpus or
// the ingestion pipeline.
func New(cfg Config) *Engine {
	if cfg.LLM == nil {
		// The default simulator shares the engine's concept lexicon so its
		// paraphrase understanding matches the embedder's.
		b := llm.DefaultBehavior()
		b.Lexicon = cfg.Lexicon
		cfg.LLM = llm.NewSim(b)
	}
	emb := embedding.NewSynth(0, cfg.Lexicon)
	eng := &Engine{
		cfg:      cfg,
		Embedder: emb,
		Tracer:   cfg.NewTracer(),
	}
	var ix index.Repository
	store := cfg.storeConfig()
	switch {
	case len(cfg.RemoteShards) > 0:
		if store.Shards < 1 {
			store.Shards = len(cfg.RemoteShards)
		}
		ix = shard.NewWithBackends(store, remote.Topology{
			Endpoints:       cfg.RemoteShards,
			Shards:          store.Shards,
			Replication:     cfg.RemoteReplication,
			OnBreakerChange: eng.fireBreakerNotify,
		}.Backends())
	case store.Shards > 1:
		ix = shard.New(store)
	default:
		ix = index.NewSegmented(store.Index, store.Segment)
	}
	eng.Index = ix
	eng.obs = eng.composeObserver(nil)

	// Assemble the LLM and query-embedder stacks: optional fault-injection
	// middleware innermost, then the resilience decorator (retry + breaker)
	// the query path talks to.
	client := cfg.LLM
	if cfg.LLMMiddleware != nil {
		client = cfg.LLMMiddleware(client)
	}
	var queryEmbedder embedding.CtxEmbedder = emb
	if cfg.EmbedderMiddleware != nil {
		queryEmbedder = cfg.EmbedderMiddleware(queryEmbedder)
	}
	lbc := cfg.Resilience.LLMBreaker
	lbc.Name = "llm"
	lbc.OnStateChange = eng.fireBreakerNotify
	eng.LLMBreaker = resilience.NewBreaker(lbc)
	client = &llm.ResilientClient{Inner: client, Policy: cfg.Resilience.LLMPolicy, Breaker: eng.LLMBreaker}
	eng.Client = client

	ebc := cfg.Resilience.EmbedBreaker
	ebc.Name = "embedding"
	ebc.OnStateChange = eng.fireBreakerNotify
	eng.EmbedBreaker = resilience.NewBreaker(ebc)

	eng.Searcher = &search.Searcher{
		Index:    ix,
		Embedder: &embedding.Resilient{Inner: queryEmbedder, Policy: cfg.Resilience.EmbedPolicy, Breaker: eng.EmbedBreaker},
		Reranker: rerank.New(),
		LLM:      client,
		Observer: eng.obs,
		Workers:  cfg.SearchWorkers,
	}
	if cfg.QueryCache != nil {
		eng.Searcher.Cache = cfg.QueryCache
	} else if cfg.QueryCacheCapacity >= 0 {
		eng.Searcher.Cache = search.NewQueryCache(cfg.QueryCacheCapacity)
	}
	eng.Generator = &generation.Generator{Client: client}
	eng.Guards = guardrails.New(cfg.Guardrails)
	return eng
}

// fireBreakerNotify forwards breaker transitions to the installed notify
// hook (see SetBreakerNotify).
func (e *Engine) fireBreakerNotify(name string, from, to resilience.State) {
	e.notifyMu.Lock()
	fn := e.breakerNotify
	e.notifyMu.Unlock()
	if fn != nil {
		fn(name, from.String(), to.String())
	}
}

// SetBreakerNotify installs a hook called after every circuit-breaker state
// change — the server wires the monitor's breaker gauge here.
func (e *Engine) SetBreakerNotify(fn func(name, from, to string)) {
	e.notifyMu.Lock()
	e.breakerNotify = fn
	e.notifyMu.Unlock()
}

// Breakers snapshots the engine's circuit breakers for health reporting:
// the LLM and embedding breakers plus one breaker per remote shard endpoint
// (absent for local topologies).
func (e *Engine) Breakers() []resilience.BreakerStatus {
	out := []resilience.BreakerStatus{e.LLMBreaker.Status(), e.EmbedBreaker.Status()}
	if s := e.Sharded(); s != nil {
		out = append(out, s.Breakers()...)
	}
	return out
}

// Sharded returns the sharded index facade, or nil when the engine runs a
// monolithic index (ShardCount <= 1). The server uses it to wire per-shard
// gauges into the dashboard.
func (e *Engine) Sharded() *shard.Sharded {
	s, _ := e.Index.(*shard.Sharded)
	return s
}

// Publish seals the store's memtable(s) into immutable segments and
// schedules background compaction — the publication point that rotates the
// cache's stats snapshot key. The ingestion entry points (IndexCorpus, each
// poller pass, single-page indexing) call it after their writes, mirroring
// a search engine's refresh-after-bulk; between publications writes are
// searchable but cached rankings may replay.
func (e *Engine) Publish() {
	if p, ok := e.Index.(index.Publisher); ok {
		p.Publish()
	}
}

// SegmentStats returns one segmented-store gauge snapshot per shard (one
// entry total for a monolithic engine) for the dashboard.
func (e *Engine) SegmentStats() []index.SegmentStats {
	switch ix := e.Index.(type) {
	case *shard.Sharded:
		return ix.SegmentStats()
	case *index.Segmented:
		return []index.SegmentStats{ix.SegmentStats()}
	}
	return nil
}

// CacheStats snapshots the query cache's effectiveness counters; ok is
// false when caching is disabled.
func (e *Engine) CacheStats() (search.CacheStats, bool) {
	if e.Searcher == nil || e.Searcher.Cache == nil {
		return search.CacheStats{}, false
	}
	return e.Searcher.Cache.Stats(), true
}

// LoadIndex replaces the engine's index with one restored from a snapshot,
// honoring the engine's shard configuration: a sharded engine accepts the
// sharded container and the segmented container a single-store engine
// wrote (migrated by re-routing every live document), while a single-store
// engine accepts the segmented container and rejects sharded containers
// with index.ErrShardedSnapshot. Anything older than the previous release
// wrote is refused with index.ErrUnsupportedSnapshot. The store is rebuilt
// with the configuration New used. The searcher is repointed and the query cache
// purged — the restored index's stats key may collide with the old one's,
// so stale entries could otherwise look current.
func (e *Engine) LoadIndex(r io.Reader) error {
	if len(e.cfg.RemoteShards) > 0 {
		// Remote shards own their data; restore them with uniask-shard
		// -snapshot on each server instead of through the facade.
		return fmt.Errorf("core: LoadIndex is unsupported with remote shards (restore each shard server from its own snapshot)")
	}
	var (
		ix  index.Repository
		err error
	)
	if store := e.cfg.storeConfig(); store.Shards > 1 {
		ix, err = shard.Load(r, store)
	} else {
		ix, err = index.ReadSegmented(r, store.Index, store.Segment)
	}
	if err != nil {
		return err
	}
	e.Index = ix
	e.Searcher.Index = ix
	if e.Searcher.Cache != nil {
		e.Searcher.Cache.Purge()
	}
	return nil
}

// composeObserver pairs the caller's observer with the tracing stage
// adapter, so every stage report both feeds the dashboard aggregates and —
// on a traced request — becomes a span in the request's trace.
func (e *Engine) composeObserver(obs pipeline.Observer) pipeline.Observer {
	if e.Tracer == nil {
		return pipeline.OrNop(obs)
	}
	return pipeline.Multi(pipeline.OrNop(obs), trace.Stages())
}

// SetObserver replaces the engine's stage observer (nil = discard) for the
// whole query pipeline, including the searcher's retrieval stages. The
// server wires its metrics registry here so every Ask feeds the per-stage
// dashboard. The tracing stage adapter stays composed in regardless.
func (e *Engine) SetObserver(obs pipeline.Observer) {
	e.obs = e.composeObserver(obs)
	e.Searcher.Observer = e.obs
}

// BuildFromCorpus creates an engine and indexes a generated corpus through
// the full ingestion pipeline (HTML extraction → chunking → enrichment →
// index). It returns a quiescent engine: the background compaction the
// load scheduled has finished, so what it serves does not depend on when a
// merge ends.
func BuildFromCorpus(ctx context.Context, corpus *kb.Corpus, cfg Config) (*Engine, error) {
	if cfg.Lexicon == nil {
		cfg.Lexicon = corpus.Lexicon()
	}
	eng := New(cfg)
	if err := eng.IndexCorpus(ctx, corpus); err != nil {
		return nil, err
	}
	if p, ok := eng.Index.(index.Publisher); ok {
		p.WaitCompaction()
	}
	return eng, nil
}

// IndexCorpus runs the ingestion + indexing flow over every corpus page: it
// is the first pass of a poller over the corpus as a static source.
func (e *Engine) IndexCorpus(ctx context.Context, corpus *kb.Corpus) error {
	pages := make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	_, err := e.NewPoller(ctx, pages)()
	return err
}

// Response is the outcome of one Ask call.
type Response struct {
	// RewrittenQuery is the standalone query retrieval actually ran, when a
	// conversational turn was rewritten against its session history ("" for
	// one-shot asks and when the rewrite was shed).
	RewrittenQuery string
	// Answer is the text shown to the user: the generated answer when the
	// guardrails pass, otherwise the apology or clarification message.
	Answer string
	// AnswerValid reports whether the generated answer survived the
	// guardrails.
	AnswerValid bool
	// Guardrail identifies the guardrail that invalidated the answer
	// (guardrails.None when valid).
	Guardrail guardrails.Trigger
	// GeneratedAnswer is the raw LLM output before guardrails.
	GeneratedAnswer string
	// Citations holds the chunk ids the (raw) answer cites.
	Citations []string
	// Documents is the retrieved document list, always populated: when a
	// guardrail fires, UniAsk still shows the list for the user to check.
	Documents []search.Result
	// Degraded reports that parts of the query were shed to keep it
	// available; DegradedParts names them ("vector", "expansion",
	// "retrieval-components", "generation").
	Degraded      bool
	DegradedParts []string
}

// Search runs retrieval only, with the deployed options (the zero
// search.Options). Like Ask it reports what was shed (shards down, vector
// legs) instead of hiding it. On a cache hit the results are the cache's
// own: see search.Hits.
func (e *Engine) Search(ctx context.Context, query string) (search.Hits, error) {
	return e.Searcher.SearchDegraded(ctx, query, search.Options{})
}

// Ask runs the full user query flow of Figure 1 as an instrumented stage
// pipeline: filter → retrieval (itself staged inside the searcher) →
// generation → guardrails. Every stage honors ctx cancellation and reports
// to the engine's observer.
func (e *Engine) Ask(ctx context.Context, question string) (Response, error) {
	return e.AskConversational(ctx, question, nil, StreamEvents{})
}

// StreamEvents carries the optional streaming callbacks of a conversational
// ask. The zero value disables streaming: the flow then behaves exactly
// like Ask.
type StreamEvents struct {
	// OnCitations fires once, as soon as retrieval + rerank land, with the
	// retrieved documents — before generation starts, so a UI can render
	// the citation list while the answer streams.
	OnCitations func(results []search.Result)
	// OnToken receives incremental answer chunks as the LLM produces them.
	// Returning an error aborts the stream (the consumer went away). The
	// streamed tokens are the raw generated answer, pre-guardrails: when a
	// guardrail later invalidates the answer, the caller must tell its
	// consumer to discard them (the SSE layer's terminal event does).
	OnToken func(chunk string) error
}

// AskConversational is Ask plus conversation context: when history is
// non-empty the turn's question is first rewritten into a standalone query
// against it (one extra LLM call, StageRewrite), and retrieval runs on the
// rewritten query. A failed rewrite sheds to the raw question —
// Degradation.RewriteSkipped, never an error — and because the shed search
// runs under the raw query text, the cache can never memoize a wrong
// rewrite. The optional StreamEvents callbacks stream citations and answer
// tokens as they land.
func (e *Engine) AskConversational(ctx context.Context, question string, history []llm.Exchange, ev StreamEvents) (Response, error) {
	var resp Response

	// 1. Content filter on the question. A firing guardrail is a normal
	// outcome, not a stage error.
	var filterTrigger guardrails.Trigger
	err := pipeline.Run(ctx, e.obs, pipeline.StageFilter, 1, func(context.Context) (int, error) {
		filterTrigger = e.Guards.CheckQuestion(question)
		return 1, nil
	})
	if err != nil {
		return resp, err
	}
	if filterTrigger != guardrails.None {
		resp.Guardrail = filterTrigger
		resp.Answer = guardrails.ApologyMessage
		return resp, nil
	}

	// 2. History-aware rewrite (conversational turns only): one LLM call
	// turns the possibly elliptical question into a standalone query. A
	// failure with the caller still alive sheds to the raw question.
	retrieveQuery := question
	var rewriteShed bool
	if len(history) > 0 {
		var rresp llm.Response
		err := pipeline.Run(ctx, e.obs, pipeline.StageRewrite, 1, func(ctx context.Context) (int, error) {
			var err error
			rresp, err = e.Client.Complete(ctx, llm.BuildRewritePrompt(history, question))
			return 1, err
		})
		switch {
		case err != nil:
			if ctxErr := ctx.Err(); ctxErr != nil {
				return resp, ctxErr
			}
			pipeline.Observe(ctx, e.obs, pipeline.StageInfo{
				Stage: pipeline.StageDegraded, In: 1,
				Err: fmt.Errorf("core: shed rewrite: %w", err),
			})
			rewriteShed = true
		case strings.TrimSpace(rresp.Content) != "":
			retrieveQuery = strings.TrimSpace(rresp.Content)
			resp.RewrittenQuery = retrieveQuery
		}
	}

	// 3. Retrieval (the searcher reports its own retrieval/fusion/rerank
	// stages). Degradation — shed vector legs, skipped expansion — is a
	// normal outcome carried on the response, not an error.
	hits, err := e.Searcher.SearchDegraded(ctx, retrieveQuery, search.Options{})
	if err != nil {
		return resp, fmt.Errorf("core: search: %w", err)
	}
	results, deg := hits.Own(), hits.Degradation
	deg.RewriteSkipped = deg.RewriteSkipped || rewriteShed
	resp.Documents = results
	resp.DegradedParts = deg.Parts()
	if ev.OnCitations != nil {
		ev.OnCitations(results)
	}

	// 4. Generation over the top-m chunks, on the standalone query (the
	// raw question when no rewrite ran). With an OnToken callback the
	// answer streams chunk by chunk; a stream that dies mid-answer degrades
	// to the extractive fallback exactly like an unavailable LLM.
	top := results
	if len(top) > generation.DefaultM {
		top = top[:generation.DefaultM]
	}
	chunks := make([]generation.RetrievedChunk, len(top))
	contexts := make([]string, len(top))
	for i, r := range top {
		chunks[i] = generation.RetrievedChunk{ID: r.ChunkID, Title: r.Title, Content: r.Content}
		contexts[i] = r.Content
	}
	var ans generation.Answer
	err = pipeline.Run(ctx, e.obs, pipeline.StageGeneration, len(chunks), func(ctx context.Context) (int, error) {
		var err error
		ans, err = e.Generator.GenerateStream(ctx, retrieveQuery, chunks, ev.OnToken)
		return 1, err
	})
	if err != nil {
		return resp, fmt.Errorf("core: generate: %w", err)
	}
	if ans.Degraded {
		// The LLM was unavailable: the extractive fallback answered. Report
		// the shed generation like the searcher reports shed legs.
		pipeline.Observe(ctx, e.obs, pipeline.StageInfo{
			Stage: pipeline.StageDegraded, In: 1,
			Err: fmt.Errorf("core: shed generation: llm unavailable"),
		})
		resp.DegradedParts = append(resp.DegradedParts, "generation")
	}
	resp.Degraded = len(resp.DegradedParts) > 0
	resp.GeneratedAnswer = ans.Text
	resp.Citations = ans.Citations

	// 5. Guardrails on the generated answer.
	var trigger guardrails.Trigger
	err = pipeline.Run(ctx, e.obs, pipeline.StageGuardrails, len(contexts), func(context.Context) (int, error) {
		trigger = e.Guards.CheckAnswer(ans.Text, ans.Citations, contexts)
		return 1, nil
	})
	if err != nil {
		return resp, err
	}
	resp.Guardrail = trigger
	switch trigger {
	case guardrails.None:
		resp.AnswerValid = true
		resp.Answer = ans.Text
	case guardrails.Clarification:
		resp.Answer = guardrails.ClarificationMessage
	default:
		resp.Answer = guardrails.ApologyMessage
	}
	return resp, nil
}

// Retriever adapts the engine for eval.Evaluate: it returns the parent
// document ranking for a query, using opts instead of the engine defaults.
func (e *Engine) Retriever(ctx context.Context, opts search.Options) func(string) []string {
	return func(query string) []string {
		results, err := e.Searcher.Search(ctx, query, opts)
		if err != nil {
			return nil
		}
		return search.ParentRanking(results)
	}
}

// NewPoller returns a function that performs one §3 polling pass over the
// knowledge-base source, the only way documents reach the index: new and
// modified pages are extracted, prepared (chunked, enriched, embedded) in
// parallel and indexed in listing order; vanished pages are tombstoned. The
// returned function reports how many pages it applied. State (content
// fingerprints) persists across calls, exactly like the 15-minute cron
// ingester.
//
// A pass that fails has applied the pages listed before the failing one and
// nothing after it. A page's fingerprint is committed only once the page is
// indexed, so the failing page and the rest are offered again by the next
// pass, and an edit whose preparation failed keeps its indexed version.
//
// Every pass runs under ctx, so a poller wired to the server's context
// stops indexing as soon as the server shuts down.
func (e *Engine) NewPoller(ctx context.Context, src ingest.Source) func() (int, error) {
	ing := &ingest.Ingester{Source: src}
	in := indexer.New(e.Index, e.Embedder, e.Client, e.cfg.Indexer)
	return func() (int, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		changes := ing.Changes()
		applied, err := in.Index(ctx, changes)
		ing.Commit(changes[:applied])
		if applied > 0 {
			// End-of-cycle publication: the pass's adds and deletes become a
			// new stats snapshot, exactly one cache rotation per poll.
			e.Publish()
		}
		if err != nil {
			return applied, fmt.Errorf("core: poll: %w", err)
		}
		return applied, nil
	}
}
