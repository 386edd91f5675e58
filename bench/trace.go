package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/llm"
	"uniask/internal/pipeline"
	"uniask/internal/resilience"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// The benchmark's own tracing. Spans are recorded by decorators this file
// installs at seams the program already exposes (an http.Handler around
// server.Handler(), a wrapper on Searcher.Index, wrappers on shard.Backend,
// the LLM and embedder middlewares, the poller's returned func) plus the
// pipeline.Observer reports the engine already emits. Nothing inside the
// program is instrumented: a layer with no seam (the searcher, the engine)
// gets a span derived from the reports around it, and says so.

// Layers of the ledger, outermost first. At any instant of a request the
// time belongs to the deepest layer that has a span open (see ledger.go),
// so the order below is the nesting order of the modules.
const (
	layerTransport  = "transport"  // client-observed minus the handler
	layerServer     = "server"     // http.Handler around server.Handler()
	layerCore       = "core"       // hull of the engine's stage reports
	layerSession    = "session"    // history rewrite stage
	layerGuardrails = "guardrails" // filter + guardrails stages
	layerGeneration = "generation" // generation stage
	layerSearch     = "search"     // hull of searcher stages and index calls
	layerFusion     = "fusion"     // fusion stage
	layerRerank     = "rerank"     // rerank stage
	layerEmbedding  = "embedding"  // EmbedderMiddleware
	layerLLM        = "llm"        // LLMMiddleware
	layerIndex      = "index"      // Searcher.Index seam on a local store
	layerShard      = "shard"      // Searcher.Index seam on the sharded facade
	layerRemote     = "remote"     // shard.Backend calls (RPC to a shard server)
	layerSSE        = "sse"        // server-side event writes + client parser
	layerIngest     = "ingest"     // one poller pass (background, no request)
)

var layerOrder = []string{
	layerTransport, layerServer, layerCore, layerSession, layerGuardrails,
	layerGeneration, layerSearch, layerFusion, layerRerank, layerEmbedding,
	layerLLM, layerIndex, layerShard, layerRemote, layerSSE,
}

var layerDepth = func() map[string]int {
	m := make(map[string]int, len(layerOrder))
	for i, l := range layerOrder {
		m[l] = i
	}
	return m
}()

// span is one timed call into a layer. Req ties the spans of one request
// together (0 = background work such as an ingest pass); N carries the
// span's work count where it has one (bytes, candidates, prompt tokens).
type span struct {
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
	Err    bool   `json:"err,omitempty"`
	Source string `json:"source,omitempty"` // "observer" for spans taken from stage reports
}

// recorder keeps spans in memory until the run ends. The traced run keeps
// one request in flight at a time, so a span belongs to the request whose
// id is current when it ends; recording is switched per request so traced
// and untraced requests interleave under identical conditions.
type recorder struct {
	epoch time.Time
	on    atomic.Bool // the request in flight is recorded
	bg    atomic.Bool // background work (ingest passes) is recorded
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) background() bool { return r != nil && r.bg.Load() }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a completed span for the current request.
func (r *recorder) add(layer, name string, start, end time.Time, n int, failed bool) {
	r.addSpan(span{Req: r.cur.Load(), Layer: layer, Name: name,
		Start: r.since(start), End: r.since(end), N: n, Err: failed})
}

func (r *recorder) addSpan(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// ---- server: http.Handler around server.Handler() ----

type countingWriter struct {
	http.ResponseWriter
	bytes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Unwrap lets http.ResponseController reach the real writer: the SSE
// handler sets per-write deadlines and flushes through it.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (r *recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		r.add(layerServer, "server.handler", start, time.Now(), cw.bytes, false)
	})
}

// ---- stages without a seam: pipeline.Observer reports ----

// stageLayers maps the engine's stage names to ledger layers. The embed
// and retrieval stages are the searcher's own bookkeeping around calls the
// embedder and index decorators time directly, so they only extend the
// derived search span.
var stageLayers = map[string]string{
	pipeline.StageFilter:     layerGuardrails,
	pipeline.StageRewrite:    layerSession,
	pipeline.StageEmbed:      layerSearch,
	pipeline.StageRetrieval:  layerSearch,
	pipeline.StageFusion:     layerFusion,
	pipeline.StageRerank:     layerRerank,
	pipeline.StageGeneration: layerGeneration,
	pipeline.StageGuardrails: layerGuardrails,
}

// ObserveStage implements pipeline.Observer. A report arrives when its
// stage ends, so the span is [now - Duration, now].
func (r *recorder) ObserveStage(info pipeline.StageInfo) {
	if !r.enabled() {
		return
	}
	layer, ok := stageLayers[info.Stage]
	if !ok {
		return
	}
	end := time.Now()
	r.addSpan(span{Req: r.cur.Load(), Layer: layer, Name: "stage." + info.Stage,
		Start: r.since(end.Add(-info.Duration)), End: r.since(end),
		N: info.In, Err: info.Err != nil, Source: "observer"})
}

// ---- embedding: core.Config.EmbedderMiddleware ----

type embedTap struct {
	embedding.CtxEmbedder
	rec *recorder
}

func (t embedTap) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	if !t.rec.enabled() {
		return t.CtxEmbedder.EmbedCtx(ctx, text)
	}
	start := time.Now()
	v, err := t.CtxEmbedder.EmbedCtx(ctx, text)
	t.rec.add(layerEmbedding, "embedding.embed", start, time.Now(), 1, err != nil)
	return v, err
}

func (r *recorder) embedderMiddleware(inner embedding.CtxEmbedder) embedding.CtxEmbedder {
	return embedTap{CtxEmbedder: inner, rec: r}
}

// ---- llm: core.Config.LLMMiddleware ----

// llmTap times chat completions. It keeps the streaming seam: the wrapped
// client streams natively when it can, and each emitted chunk — which the
// server turns into one SSE token event — is timed as an sse write.
type llmTap struct {
	inner llm.Client
	rec   *recorder
}

func (t llmTap) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if !t.rec.enabled() {
		return t.inner.Complete(ctx, req)
	}
	start := time.Now()
	resp, err := t.inner.Complete(ctx, req)
	t.rec.add(layerLLM, "llm.complete", start, time.Now(), resp.PromptTokens, err != nil)
	return resp, err
}

func (t llmTap) CompleteStream(ctx context.Context, req llm.Request, emit func(string) error) (llm.Response, error) {
	if !t.rec.enabled() {
		return llm.CompleteStream(ctx, t.inner, req, emit)
	}
	timed := emit
	if emit != nil {
		timed = func(chunk string) error {
			s := time.Now()
			err := emit(chunk)
			t.rec.add(layerSSE, "sse.write", s, time.Now(), len(chunk), err != nil)
			return err
		}
	}
	start := time.Now()
	resp, err := llm.CompleteStream(ctx, t.inner, req, timed)
	t.rec.add(layerLLM, "llm.complete", start, time.Now(), resp.PromptTokens, err != nil)
	return resp, err
}

func (r *recorder) llmMiddleware(inner llm.Client) llm.Client {
	return llmTap{inner: inner, rec: r}
}

// ---- index: wrapper on Searcher.Index ----

// The searcher probes its index for two optional richer surfaces before it
// falls back to index.Queryable; the tap offers the richest one and hands
// each call to the richest surface the wrapped store really has, which is
// exactly the routing the searcher would have done itself.
type ctxQueryable interface {
	SearchTextCtx(ctx context.Context, query string, n int, opts index.TextOptions) []index.Hit
	SearchVectorCtx(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) []index.Hit
}

type partialQueryable interface {
	SearchTextPartial(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int)
	SearchVectorPartial(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int)
}

type indexTap struct {
	index.Queryable
	rec   *recorder
	layer string // layerIndex on a local store, layerShard on the facade
}

func (t *indexTap) SearchTextPartial(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int) {
	if !t.rec.enabled() {
		return t.searchText(ctx, query, n, opts)
	}
	start := time.Now()
	hits, down := t.searchText(ctx, query, n, opts)
	t.rec.add(t.layer, "index.text", start, time.Now(), down, false)
	return hits, down
}

func (t *indexTap) searchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int) {
	switch ix := t.Queryable.(type) {
	case partialQueryable:
		return ix.SearchTextPartial(ctx, query, n, opts)
	case ctxQueryable:
		return ix.SearchTextCtx(ctx, query, n, opts), 0
	}
	return t.Queryable.SearchText(query, n, opts), 0
}

func (t *indexTap) SearchVectorPartial(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int) {
	if !t.rec.enabled() {
		return t.searchVector(ctx, field, q, k, filters)
	}
	start := time.Now()
	hits, down := t.searchVector(ctx, field, q, k, filters)
	t.rec.add(t.layer, "index.vector", start, time.Now(), down, false)
	return hits, down
}

func (t *indexTap) searchVector(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int) {
	switch ix := t.Queryable.(type) {
	case partialQueryable:
		return ix.SearchVectorPartial(ctx, field, q, k, filters)
	case ctxQueryable:
		return ix.SearchVectorCtx(ctx, field, q, k, filters), 0
	}
	return t.Queryable.SearchVector(field, q, k, filters), 0
}

func (t *indexTap) DocByID(id string) (index.Document, bool) {
	if !t.rec.enabled() {
		return t.Queryable.DocByID(id)
	}
	start := time.Now()
	doc, ok := t.Queryable.DocByID(id)
	t.rec.add(t.layer, "index.doc_fetch", start, time.Now(), 0, false)
	return doc, ok
}

// DeletesSince is the first and the last thing the searcher asks its index
// on every cached search, hit or miss; the zero-length marks bound the
// derived search span.
func (t *indexTap) DeletesSince(cursor uint64) ([]string, uint64, bool) {
	ids, next, ok := t.Queryable.DeletesSince(cursor)
	if t.rec.enabled() {
		now := time.Now()
		t.rec.add(layerSearch, "search.mark", now, now, 0, false)
	}
	return ids, next, ok
}

// ---- remote: wrappers on shard.Backend ----

// backendTap times the query calls the facade makes to one shard backend.
// Everything else (writes, gauges, lifecycle) passes through the embedded
// backend untouched.
type backendTap struct {
	shard.Backend
	rec *recorder
}

func (t *backendTap) call(name string, start time.Time, err error) {
	t.rec.add(layerRemote, name, start, time.Now(), 0, err != nil)
}

func (t *backendTap) CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error) {
	if !t.rec.enabled() {
		return t.Backend.CollectStats(ctx, fields, terms)
	}
	start := time.Now()
	cs, err := t.Backend.CollectStats(ctx, fields, terms)
	t.call("remote.collect_stats", start, err)
	return cs, err
}

func (t *backendTap) SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error) {
	if !t.rec.enabled() {
		return t.Backend.SearchText(ctx, query, n, opts)
	}
	start := time.Now()
	hits, err := t.Backend.SearchText(ctx, query, n, opts)
	t.call("remote.search_text", start, err)
	return hits, err
}

func (t *backendTap) SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error) {
	if !t.rec.enabled() {
		return t.Backend.SearchTextGlobal(ctx, query, n, opts, stats)
	}
	start := time.Now()
	hits, err := t.Backend.SearchTextGlobal(ctx, query, n, opts, stats)
	t.call("remote.search_text", start, err)
	return hits, err
}

func (t *backendTap) SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error) {
	if !t.rec.enabled() {
		return t.Backend.SearchVectorUnit(ctx, field, q, k, filters)
	}
	start := time.Now()
	hits, err := t.Backend.SearchVectorUnit(ctx, field, q, k, filters)
	t.call("remote.search_vector", start, err)
	return hits, err
}

func (t *backendTap) DocByID(id string) (index.Document, bool) {
	if !t.rec.enabled() {
		return t.Backend.DocByID(id)
	}
	start := time.Now()
	doc, ok := t.Backend.DocByID(id)
	t.call("remote.doc_by_id", start, nil)
	return doc, ok
}

// StatsKey is read on every cached search to key the query cache; a remote
// backend may answer it with a status RPC.
func (t *backendTap) StatsKey() uint64 {
	if !t.rec.enabled() {
		return t.Backend.StatsKey()
	}
	start := time.Now()
	key := t.Backend.StatsKey()
	t.call("remote.status", start, nil)
	return key
}

// Breakers keeps the endpoint breakers visible to Engine.Breakers, which
// finds them by asserting each backend to shard.HealthReporter.
func (t *backendTap) Breakers() []resilience.BreakerStatus {
	if hr, ok := t.Backend.(shard.HealthReporter); ok {
		return hr.Breakers()
	}
	return nil
}

// ---- ingest: the index writes of a poller pass ----

// writeTap times the writes the poller's indexer makes, so a pass can be
// split into index time and everything before it (extraction, chunking,
// embedding). It stands in for Engine.Index only while the poller is
// created; queries never see it.
type writeTap struct {
	index.Repository
	rec *recorder
}

func (t *writeTap) timed(name string, start time.Time) {
	if t.rec.background() {
		t.rec.addSpan(span{Layer: layerIndex, Name: name,
			Start: t.rec.since(start), End: t.rec.since(time.Now())})
	}
}

func (t *writeTap) Add(doc index.Document) error {
	defer t.timed("index.write", time.Now())
	return t.Repository.Add(doc)
}

func (t *writeTap) AddBulk(docs []index.Document) error {
	defer t.timed("index.write", time.Now())
	return t.Repository.AddBulk(docs)
}

func (t *writeTap) Delete(chunkID string) bool {
	defer t.timed("index.write", time.Now())
	return t.Repository.Delete(chunkID)
}

func (t *writeTap) DeleteParent(parentID string) int {
	defer t.timed("index.write", time.Now())
	return t.Repository.DeleteParent(parentID)
}
