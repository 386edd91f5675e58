// Package uniask is the public API of the UniAsk reproduction: a
// Retrieval-Augmented-Generation search system for enterprise knowledge
// bases, after "UniAsk: AI-powered search for banking knowledge bases"
// (EDBT 2025).
//
// A System wraps the full pipeline the paper describes: HTML ingestion and
// paragraph-aware chunking, a hybrid index (Italian-analyzed BM25 full-text
// search plus HNSW vector search over synthetic embeddings), Reciprocal
// Rank Fusion with semantic reranking, grounded answer generation with
// citations through a chat-completion LLM interface, and the guardrail
// pipeline (ROUGE-L, citation, clarification, content filter).
//
// Quick start:
//
//	corpus := uniask.SyntheticCorpus(1000, 42)
//	sys, err := uniask.NewFromCorpus(context.Background(), corpus, uniask.Config{})
//	if err != nil { ... }
//	resp, err := sys.Ask(context.Background(), "Come posso bloccare la carta di credito?")
//	fmt.Println(resp.Answer)
package uniask

import (
	"context"
	"errors"
	"io"
	"time"

	"uniask/internal/core"
	"uniask/internal/kb"
	"uniask/internal/search"
	"uniask/internal/server"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// Config configures a System. It is the engine configuration itself, so
// every knob is declared and documented once: on core.Config, or on the
// config struct of the package that reads it (Indexer, Guardrails, Segment,
// Trace), which core.Config carries by value. The zero value is the paper's
// deployed configuration.
type Config = core.Config

// System is a fully assembled UniAsk instance.
type System struct {
	engine *core.Engine
}

// Response is the outcome of an Ask call: the answer (or the apology /
// clarification message when a guardrail fired), the guardrail verdict,
// the citations and the retrieved document list.
type Response = core.Response

// Result is one retrieved chunk.
type Result = search.Result

// Corpus is a synthetic knowledge base (see SyntheticCorpus).
type Corpus = kb.Corpus

// AdmissionConfig tunes the multi-tenant admission front door (slots,
// queue depths, class weights) — see MultiTenantConfig.Admission.
type AdmissionConfig = tenant.AdmissionConfig

// New creates a System with an empty index. Feed it with IndexCorpus, or
// with a poller over any page source (Engine().NewPoller).
func New(cfg Config) *System {
	return &System{engine: core.New(cfg)}
}

// NewFromCorpus creates a System and indexes the given corpus through the
// full ingestion pipeline. When cfg.Lexicon is nil the corpus' own concept
// lexicon is used, which is what gives the embedder paraphrase proximity.
func NewFromCorpus(ctx context.Context, corpus *Corpus, cfg Config) (*System, error) {
	if cfg.Lexicon == nil {
		cfg.Lexicon = corpus.Lexicon()
	}
	s := New(cfg)
	if err := s.IndexCorpus(ctx, corpus); err != nil {
		return nil, err
	}
	return s, nil
}

// SyntheticCorpus generates a deterministic synthetic Italian banking
// knowledge base with the statistical shape of the paper's corpus: short
// HTML documents, editor tags, jargon codes and near-duplicate clusters.
// The paper's deployment indexed 59308 documents.
func SyntheticCorpus(docs int, seed int64) *Corpus {
	return kb.Generate(kb.GenConfig{Docs: docs, Seed: seed})
}

// IndexCorpus ingests and indexes every page of a corpus.
func (s *System) IndexCorpus(ctx context.Context, corpus *Corpus) error {
	return s.engine.IndexCorpus(ctx, corpus)
}

// Ask runs the full RAG query flow: content filter, hybrid retrieval with
// semantic reranking, grounded generation, guardrails. The document list in
// the response is populated even when a guardrail invalidates the answer.
func (s *System) Ask(ctx context.Context, question string) (Response, error) {
	return s.engine.Ask(ctx, question)
}

// Search runs retrieval only and returns the ranked chunks.
func (s *System) Search(ctx context.Context, query string) ([]Result, error) {
	hits, err := s.engine.Search(ctx, query)
	return hits.Own(), err
}

// IndexedChunks reports how many chunks the index holds.
func (s *System) IndexedChunks() int { return s.engine.Index.Len() }

// Engine exposes the underlying core engine for advanced composition
// (custom evaluation harnesses, servers, experiments).
func (s *System) Engine() *core.Engine { return s.engine }

// NewServer wraps the system in the REST backend (login, ask, search,
// feedback, dashboard endpoints), serving its engine as the default tenant.
func (s *System) NewServer() *server.Server { return server.New(s.engine) }

// SaveIndex serializes the system's index (documents, inverted postings,
// HNSW graphs) so a later LoadIndex skips the expensive build.
func (s *System) SaveIndex(w io.Writer) error {
	return s.engine.Index.Save(w)
}

// MultiTenantConfig assembles multi-tenant serving ("one deployment, many
// banks" — see docs/MULTITENANCY.md): per-tenant engines derived from a
// base Config, per-tenant limits from a hot-reloadable overrides file, an
// admission-control front door and a shared trace store.
type MultiTenantConfig struct {
	// Base is the engine shape every tenant starts from; per-tenant limits
	// (cache share, fan-out) specialize it.
	Base Config
	// OverridesPath is the tenant limits JSON file (see
	// docs/MULTITENANCY.md for the format). Tenants listed there are the
	// onboarded set; requests naming any other tenant get 404.
	OverridesPath string
	// ReloadInterval is the overrides-file poll interval (0 = 5s; negative
	// disables hot reload). A bad file keeps the last good configuration.
	ReloadInterval time.Duration
	// CacheBudget bounds total query-cache entries across all tenant
	// partitions (0 = 4096; negative = unbounded).
	CacheBudget int
	// Admission tunes the front door (zero value = library defaults:
	// 64 slots, 4:1 interactive:best-effort weights, 500ms max queue wait).
	Admission tenant.AdmissionConfig
	// Corpus, when non-nil, provides each tenant's knowledge base at
	// onboarding (first request). Nil tenants start empty.
	Corpus func(tenantID string) *Corpus
	// Log, when non-nil, receives overrides reload diagnostics ("reloaded",
	// "keeping last good config: ...") — the binary points it at stderr so a
	// rejected config push is visible to the operator who made it.
	Log func(format string, args ...any)
}

// DefaultTenantCacheBudget is MultiTenantConfig.CacheBudget's default.
const DefaultTenantCacheBudget = 4096

// NewMultiTenantServer loads the overrides file and assembles the
// multi-tenant REST backend: registry (lazy per-tenant engines), admission
// controller, shared tracer, partitioned query cache. The returned server
// serves the same API as NewServer plus tenant routing (X-Uniask-Tenant
// header or /t/{tenant}/api/... paths) and 429 + Retry-After shedding. The
// overrides watcher runs until ctx is cancelled. A Base with RemoteShards is
// refused: shard servers hold one knowledge base, so only the default tenant
// of a one-bank deployment (NewServer) may live on them.
func NewMultiTenantServer(ctx context.Context, cfg MultiTenantConfig) (*server.Server, error) {
	if len(cfg.Base.RemoteShards) > 0 {
		return nil, errors.New("uniask: only the default tenant may use RemoteShards: every engine built from Base would address the same shard ids on the same shard servers and mix the tenants' documents; serve tenants from in-process shards (ShardCount)")
	}
	ov, err := tenant.LoadOverrides(cfg.OverridesPath)
	if err != nil {
		return nil, err
	}
	tracer := cfg.Base.NewTracer()
	budget := cfg.CacheBudget
	if budget == 0 {
		budget = DefaultTenantCacheBudget
	}
	pool := search.NewCachePool(budget, 0)

	reg := tenant.NewRegistry(ov, tenantFactory(ctx, cfg.Base, pool, tracer, cfg.Corpus))
	srv := server.NewMultiTenant(reg, tenant.NewController(cfg.Admission, ov), tracer, pool)
	ov.Log = cfg.Log
	if cfg.ReloadInterval >= 0 {
		go ov.Watch(ctx, cfg.ReloadInterval)
	}
	return srv, nil
}

// tenantFactory builds one tenant's engine: the base config specialized by
// the tenant's limits, with the tenant corpus' lexicon when a corpus
// provider is configured (so per-tenant synthetic embeddings stay coherent
// with the tenant's own vocabulary), ingesting that corpus at onboarding.
func tenantFactory(ctx context.Context, base Config, pool *search.CachePool, tracer *trace.Tracer, corpusFn func(string) *Corpus) tenant.EngineFactory {
	return func(id string, lim tenant.Limits) (*core.Engine, error) {
		cfg := base
		var corpus *Corpus
		if corpusFn != nil {
			corpus = corpusFn(id)
		}
		if cfg.Lexicon == nil && corpus != nil {
			cfg.Lexicon = corpus.Lexicon()
		}
		eng, err := tenant.StandardFactory(cfg, pool, tracer)(id, lim)
		if err != nil {
			return nil, err
		}
		if corpus != nil {
			if err := eng.IndexCorpus(ctx, corpus); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
}

// LoadIndex replaces the system's index with a snapshot SaveIndex wrote at
// this release or the previous one, under the same embedder configuration
// (anything older fails with index.ErrUnsupportedSnapshot); see
// core.Engine.LoadIndex for which layouts each shard configuration accepts.
func (s *System) LoadIndex(r io.Reader) error {
	return s.engine.LoadIndex(r)
}
