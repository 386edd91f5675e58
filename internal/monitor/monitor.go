// Package monitor implements UniAsk's health/usage monitoring (§9, Figure
// 3): a thread-safe metrics registry the services write into, and a
// dashboard snapshot reporting the number of users, feedbacks, average
// response time, failed requests and triggered guardrails.
//
// The registry is also a pipeline.Observer: wired into the query pipeline
// (core.Engine.SetObserver) it aggregates per-stage call counts, errors,
// latency and input/output sizes for every Figure-1 stage — filter,
// retrieval, fusion, rerank, generation, guardrails — surfaced both in the
// dashboard string and in the server's /api/dashboard JSON.
package monitor

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"uniask/internal/pipeline"
	"uniask/internal/trace"
)

// Metrics is the registry the microservices record events into.
//
// Locking: the stage-aggregate map lives under its own stageMu, separate
// from the registry lock. ObserveStage fires several times per query on the
// pipeline hot path; splitting the locks means stage reports never contend
// with RecordQuery/RecordFeedback writers or a dashboard Snapshot walking
// the registry maps.
type Metrics struct {
	mu                 sync.Mutex
	users              map[string]bool
	queries            int
	failures           int
	guardrails         map[string]int
	feedbacks          int
	positiveFeedbacks  int
	totalLatency       time.Duration
	breakerStates      map[string]string
	breakerTransitions map[string]int
	degradedQueries    int
	degradedParts      map[string]int

	stageMu sync.Mutex
	stages  map[string]*stageAgg
}

// stageAgg accumulates one pipeline stage's reports.
type stageAgg struct {
	count        int
	errors       int
	totalLatency time.Duration
	totalIn      int
	totalOut     int
	// maxLatency is the worst single execution seen; exemplar is the trace
	// ID of the worst *traced* execution (exemplarLatency its latency), the
	// dashboard's link from an aggregate to one concrete slow request.
	maxLatency      time.Duration
	exemplar        string
	exemplarLatency time.Duration
}

// New returns an empty registry.
func New() *Metrics {
	return &Metrics{
		users:              make(map[string]bool),
		guardrails:         make(map[string]int),
		stages:             make(map[string]*stageAgg),
		breakerStates:      make(map[string]string),
		breakerTransitions: make(map[string]int),
		degradedParts:      make(map[string]int),
	}
}

// RecordBreakerTransition logs one circuit-breaker state change; the gauge
// keeps the latest state per dependency plus a transition counter. Wire it
// to core.Engine.SetBreakerNotify.
func (m *Metrics) RecordBreakerTransition(name, from, to string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.breakerStates[name] = to
	m.breakerTransitions[name]++
}

// RecordDegraded logs one query answered in degraded mode, with the parts
// that were shed ("vector", "expansion", "retrieval-components",
// "generation").
func (m *Metrics) RecordDegraded(parts []string) {
	if len(parts) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.degradedQueries++
	for _, p := range parts {
		m.degradedParts[p]++
	}
}

// ShardGauge is one index shard's dashboard row: size gauges plus the
// shard-local query latency the facade records on every fan-out.
type ShardGauge struct {
	// Tenant is the tenant whose engine owns the shard ("" = the default
	// tenant); Shard is the shard number within that engine.
	Tenant string
	Shard  int
	// Docs counts chunks ever inserted (including tombstones), Live the
	// searchable ones, Tombstones the deleted-but-unreclaimed ones.
	Docs       int
	Live       int
	Tombstones int
	// Postings counts inverted-index posting entries — the shard's dominant
	// memory term.
	Postings int
	// Queries and AvgQueryLatency aggregate the shard-local search calls.
	Queries         uint64
	AvgQueryLatency time.Duration
}

// SegmentGauge is one segmented store's dashboard row: how much live
// ingestion sits unpublished in the memtable, how many immutable segments
// back queries, and how far the background compactor has to go.
type SegmentGauge struct {
	// Tenant is the tenant whose engine owns the store ("" = the default
	// tenant); Shard is the owning shard number (0 on a monolithic engine).
	Tenant string
	Shard  int
	// MemtableDocs is the number of chunks absorbed but not yet sealed.
	MemtableDocs int
	// Segments is the current sealed-segment count; Backlog is how many
	// merges the size-tiered policy owes right now (0 = at rest, which the
	// store can be with more segments than the compaction fan-in).
	Segments int
	Backlog  int
	// Seals and Compactions count lifetime memtable seals and completed
	// background merges.
	Seals       uint64
	Compactions uint64
	// ChunksSealed and ChunksRewritten count the chunks those seals turned
	// into segments and the chunks those merges re-added; rewritten ÷
	// sealed is the store's write amplification.
	ChunksSealed    uint64
	ChunksRewritten uint64
	// StatsKey is the store's current published-stats snapshot key; it only
	// moves when a publication changed global BM25 statistics.
	StatsKey uint64
}

// CacheGauge is the query cache's dashboard row. HitRate is the headline
// number for live-ingestion health: with snapshot-keyed invalidation it
// should stay high while writes land on other shards' memtables.
type CacheGauge struct {
	Hits            uint64
	Misses          uint64
	HitRate         float64
	Entries         int
	DeleteEvictions uint64
}

// TenantGauge is one tenant's dashboard row in multi-tenant serving: the
// admission outcomes (admitted / queued / shed, with the shed broken down
// by gate), current consumption against the configured envelope, the
// tenant's recent p99, and its query-cache partition effectiveness. The
// noisy-neighbor triage runbook (docs/OPERATIONS.md) reads these first.
type TenantGauge struct {
	// Tenant is the tenant ID; Class its priority class ("interactive" or
	// "best-effort").
	Tenant string
	Class  string
	// Admitted, Queued and Shed count lifetime admission outcomes;
	// ShedByReason splits Shed by gate ("rate-limit",
	// "tenant-concurrency", "saturated").
	Admitted     uint64
	Queued       uint64
	Shed         uint64
	ShedByReason map[string]uint64
	// Inflight is the tenant's current in-flight queries; RateLimit and
	// MaxConcurrent echo the effective limits so consumption reads next to
	// the envelope.
	Inflight      int
	RateLimit     float64
	MaxConcurrent int
	// P99 is the tenant's recent request latency (admission-to-release).
	P99 time.Duration
	// CacheHitRate / CacheEntries describe the tenant's query-cache
	// partition; HasCache is false when the tenant opted out.
	CacheHitRate float64
	CacheEntries int
	HasCache     bool
}

// SessionGauge is the conversational layer's dashboard row: live session
// and stream population plus the counters the stuck-streams runbook reads
// (heartbeats prove the server side is alive; disconnects say clients are
// going away mid-turn).
type SessionGauge struct {
	// Live is the current session count; Turns the retained turns across
	// them. Expired and Evicted count TTL and LRU-budget drops.
	Live    int
	Turns   int
	Expired uint64
	Evicted uint64
	// OpenStreams is the number of SSE streams currently open;
	// StreamsOpened/StreamsClosed are lifetime counters.
	OpenStreams   int64
	StreamsOpened uint64
	StreamsClosed uint64
	// Heartbeats counts keep-alive comments written to idle streams;
	// Disconnects counts clients that vanished before the terminal event.
	Heartbeats  uint64
	Disconnects uint64
}

// RerankGauge is one reranker's click-recalibration dashboard row (one per
// active tenant).
type RerankGauge struct {
	// Tenant is the owning tenant ("" = the default tenant).
	Tenant string
	// Clicks counts feedback events folded into the weights; Version is
	// the current weight version (the query cache keys on it).
	Clicks  uint64
	Version uint64
	// Drift is the largest parameter excursion from the factory
	// calibration in envelope units (1.0 = pinned at the clamp).
	Drift float64
}

// RecordQuery logs one user query: who asked, how long the request took,
// which guardrail (if any) fired, and whether the request failed outright.
func (m *Metrics) RecordQuery(user string, latency time.Duration, guardrail string, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.users[user] = true
	m.queries++
	m.totalLatency += latency
	if failed {
		m.failures++
	}
	if guardrail != "" && guardrail != "none" {
		m.guardrails[guardrail]++
	}
}

// RecordFeedback logs one feedback submission.
func (m *Metrics) RecordFeedback(positive bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.feedbacks++
	if positive {
		m.positiveFeedbacks++
	}
}

// ObserveStage implements pipeline.Observer: one report per stage
// execution, aggregated into per-stage counters and latency.
func (m *Metrics) ObserveStage(info pipeline.StageInfo) {
	m.observeStage("", info)
}

// ObserveStageCtx implements pipeline.CtxObserver: like ObserveStage, but
// when the reporting request is traced its trace ID competes to become the
// stage's worst-latency exemplar — the dashboard aggregate then links
// straight to a full span tree at /api/traces/{id}.
func (m *Metrics) ObserveStageCtx(ctx context.Context, info pipeline.StageInfo) {
	m.observeStage(trace.ContextID(ctx), info)
}

func (m *Metrics) observeStage(traceID string, info pipeline.StageInfo) {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	agg, ok := m.stages[info.Stage]
	if !ok {
		agg = &stageAgg{}
		m.stages[info.Stage] = agg
	}
	agg.count++
	agg.totalLatency += info.Duration
	agg.totalIn += info.In
	agg.totalOut += info.Out
	if info.Err != nil {
		agg.errors++
	}
	if info.Duration > agg.maxLatency {
		agg.maxLatency = info.Duration
	}
	if traceID != "" && (agg.exemplar == "" || info.Duration > agg.exemplarLatency) {
		agg.exemplar = traceID
		agg.exemplarLatency = info.Duration
	}
}

// StageStats is the dashboard view of one pipeline stage.
type StageStats struct {
	// Stage is the stage name (pipeline.Stage* or custom).
	Stage string
	// Count and Errors are executions and failed executions (cancellation
	// counts as a failure).
	Count  int
	Errors int
	// AvgLatency is mean stage latency over all executions; MaxLatency is
	// the worst single execution.
	AvgLatency time.Duration
	MaxLatency time.Duration
	// ExemplarTraceID is the trace of the worst-latency traced execution
	// (empty when no traced request has reported) — fetch it from
	// /api/traces/{id} to see where that slow sample spent its time.
	ExemplarTraceID string
	// AvgIn and AvgOut are the mean input/output sizes (items).
	AvgIn, AvgOut float64
}

// Dashboard is a point-in-time snapshot (the Figure 3 page).
type Dashboard struct {
	Users               int
	Queries             int
	Feedbacks           int
	PositiveFeedbacks   int
	AvgResponse         time.Duration
	FailedRequests      int
	GuardrailsTriggered int
	PerGuardrail        map[string]int
	// Stages holds per-pipeline-stage latency and size aggregates, in
	// query-flow order (filter … guardrails, then custom stages).
	Stages []StageStats
	// DegradedQueries counts queries answered at reduced fidelity, and
	// DegradedParts breaks them down by what was shed.
	DegradedQueries int
	DegradedParts   map[string]int
	// Breakers maps each circuit breaker to its latest observed state, and
	// BreakerTransitions counts its state changes.
	Breakers           map[string]string
	BreakerTransitions map[string]int
	// Shards holds per-shard index gauges of the sharded engines (nil when
	// every engine runs a monolithic index).
	Shards []ShardGauge
	// Segments holds per-store segmented-index gauges (per active tenant
	// engine: one row per shard, one total on a monolithic engine).
	Segments []SegmentGauge
	// Cache holds the query-cache gauge, summed over the active engines;
	// HasCache is false when caching is disabled or never wired.
	Cache    CacheGauge
	HasCache bool
	// Tenants holds per-tenant admission gauges (nil without an admission
	// controller).
	Tenants []TenantGauge
	// Sessions holds the conversational-layer gauge; HasSessions is false
	// when no session store is wired.
	Sessions    SessionGauge
	HasSessions bool
	// Rerank holds the click-recalibration gauges (one row per reranker).
	Rerank []RerankGauge
}

// Snapshot reads what the registry records: the query, feedback and
// degradation counters, the per-stage aggregates and the breaker states.
// The gauge rows (shards, segments, cache, tenants, sessions, rerank) are
// the caller's to fill — the server reads them from its engines in one pass.
func (m *Metrics) Snapshot() Dashboard {
	stages := m.stageStats() // under stageMu only, never nested in m.mu
	m.mu.Lock()
	defer m.mu.Unlock()
	d := Dashboard{
		Users:              len(m.users),
		Queries:            m.queries,
		Feedbacks:          m.feedbacks,
		PositiveFeedbacks:  m.positiveFeedbacks,
		FailedRequests:     m.failures,
		PerGuardrail:       make(map[string]int, len(m.guardrails)),
		DegradedQueries:    m.degradedQueries,
		DegradedParts:      make(map[string]int, len(m.degradedParts)),
		Breakers:           make(map[string]string, len(m.breakerStates)),
		BreakerTransitions: make(map[string]int, len(m.breakerTransitions)),
	}
	for k, v := range m.guardrails {
		d.PerGuardrail[k] = v
		d.GuardrailsTriggered += v
	}
	for k, v := range m.degradedParts {
		d.DegradedParts[k] = v
	}
	for k, v := range m.breakerStates {
		d.Breakers[k] = v
	}
	for k, v := range m.breakerTransitions {
		d.BreakerTransitions[k] = v
	}
	if m.queries > 0 {
		d.AvgResponse = m.totalLatency / time.Duration(m.queries)
	}
	d.Stages = stages
	sort.Slice(d.Stages, func(i, j int) bool {
		oi, oj := pipeline.StageOrder(d.Stages[i].Stage), pipeline.StageOrder(d.Stages[j].Stage)
		if oi != oj {
			return oi < oj
		}
		return d.Stages[i].Stage < d.Stages[j].Stage
	})
	return d
}

// TenantByID returns one tenant's gauge row (zero row, false when absent).
func (d Dashboard) TenantByID(id string) (TenantGauge, bool) {
	for _, t := range d.Tenants {
		if t.Tenant == id {
			return t, true
		}
	}
	return TenantGauge{}, false
}

// stageStats snapshots the per-stage aggregates under stageMu.
func (m *Metrics) stageStats() []StageStats {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	out := make([]StageStats, 0, len(m.stages))
	for name, agg := range m.stages {
		s := StageStats{
			Stage: name, Count: agg.count, Errors: agg.errors,
			MaxLatency: agg.maxLatency, ExemplarTraceID: agg.exemplar,
		}
		if agg.count > 0 {
			s.AvgLatency = agg.totalLatency / time.Duration(agg.count)
			s.AvgIn = float64(agg.totalIn) / float64(agg.count)
			s.AvgOut = float64(agg.totalOut) / float64(agg.count)
		}
		out = append(out, s)
	}
	return out
}

// StageByName returns the stats for one stage (zero value when absent).
func (d Dashboard) StageByName(stage string) (StageStats, bool) {
	for _, s := range d.Stages {
		if s.Stage == stage {
			return s, true
		}
	}
	return StageStats{}, false
}

// String renders the dashboard page.
func (d Dashboard) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Monitoring dashboard\n")
	fmt.Fprintf(&b, "  users:                 %d\n", d.Users)
	fmt.Fprintf(&b, "  queries:               %d\n", d.Queries)
	fmt.Fprintf(&b, "  feedbacks:             %d (%d positive)\n", d.Feedbacks, d.PositiveFeedbacks)
	fmt.Fprintf(&b, "  avg response time:     %v\n", d.AvgResponse.Round(time.Millisecond))
	fmt.Fprintf(&b, "  failed requests:       %d\n", d.FailedRequests)
	fmt.Fprintf(&b, "  guardrails triggered:  %d\n", d.GuardrailsTriggered)
	keys := make([]string, 0, len(d.PerGuardrail))
	for k := range d.PerGuardrail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "    %-20s %d\n", k+":", d.PerGuardrail[k])
	}
	if d.DegradedQueries > 0 {
		fmt.Fprintf(&b, "  degraded queries:      %d\n", d.DegradedQueries)
		parts := make([]string, 0, len(d.DegradedParts))
		for k := range d.DegradedParts {
			parts = append(parts, k)
		}
		sort.Strings(parts)
		for _, k := range parts {
			fmt.Fprintf(&b, "    %-20s %d\n", k+":", d.DegradedParts[k])
		}
	}
	if len(d.Breakers) > 0 {
		fmt.Fprintf(&b, "  circuit breakers:      (state / transitions)\n")
		names := make([]string, 0, len(d.Breakers))
		for k := range d.Breakers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "    %-12s %-10s %d\n", k+":", d.Breakers[k], d.BreakerTransitions[k])
		}
	}
	if len(d.Shards) > 0 {
		fmt.Fprintf(&b, "  index shards:          (docs / live / postings / queries / avg latency)\n")
		for _, s := range d.Shards {
			fmt.Fprintf(&b, "    shard %-6d %8d  %8d  %10d  %8d  %10v%s\n",
				s.Shard, s.Docs, s.Live, s.Postings, s.Queries, s.AvgQueryLatency.Round(time.Microsecond), tenantSuffix(s.Tenant))
		}
	}
	if len(d.Segments) > 0 {
		fmt.Fprintf(&b, "  index segments:        (memtable / segments / backlog / seals / compactions / rewritten÷sealed)\n")
		for _, s := range d.Segments {
			amp := 0.0 // write amplification; nothing sealed yet reads 0
			if s.ChunksSealed > 0 {
				amp = float64(s.ChunksRewritten) / float64(s.ChunksSealed)
			}
			fmt.Fprintf(&b, "    shard %-6d %8d  %8d  %7d  %6d  %11d  %d/%d = %.2f%s\n",
				s.Shard, s.MemtableDocs, s.Segments, s.Backlog, s.Seals, s.Compactions,
				s.ChunksRewritten, s.ChunksSealed, amp, tenantSuffix(s.Tenant))
		}
	}
	if d.HasCache {
		fmt.Fprintf(&b, "  query cache:           %.0f%% hit rate (%d hits / %d misses, %d entries, %d delete evictions)\n",
			d.Cache.HitRate*100, d.Cache.Hits, d.Cache.Misses, d.Cache.Entries, d.Cache.DeleteEvictions)
	}
	if len(d.Tenants) > 0 {
		fmt.Fprintf(&b, "  tenants:               (class / admitted / shed / inflight / p99 / cache hit)\n")
		for _, t := range d.Tenants {
			cacheCol := "-"
			if t.HasCache {
				cacheCol = fmt.Sprintf("%.0f%%", t.CacheHitRate*100)
			}
			fmt.Fprintf(&b, "    %-14s %-12s %8d  %8d  %4d  %10v  %6s\n",
				t.Tenant+":", t.Class, t.Admitted, t.Shed, t.Inflight, t.P99.Round(time.Microsecond), cacheCol)
		}
	}
	if d.HasSessions {
		s := d.Sessions
		fmt.Fprintf(&b, "  sessions:              %d live (%d turns, %d expired, %d evicted)\n",
			s.Live, s.Turns, s.Expired, s.Evicted)
		fmt.Fprintf(&b, "  streams:               %d open (%d opened / %d closed, %d heartbeats, %d disconnects)\n",
			s.OpenStreams, s.StreamsOpened, s.StreamsClosed, s.Heartbeats, s.Disconnects)
	}
	if len(d.Rerank) > 0 {
		fmt.Fprintf(&b, "  rerank feedback:       (clicks / weight version / drift)\n")
		for _, r := range d.Rerank {
			name := r.Tenant
			if name == "" {
				name = "engine"
			}
			fmt.Fprintf(&b, "    %-14s %6d  %6d  %.2f\n", name+":", r.Clicks, r.Version, r.Drift)
		}
	}
	b.WriteString(d.StagesString())
	return b.String()
}

// tenantSuffix labels an index row with its tenant; the default tenant's
// rows stay bare.
func tenantSuffix(id string) string {
	if id == "" {
		return ""
	}
	return "  (" + id + ")"
}

// StagesString renders the per-stage pipeline section of the dashboard
// (empty when no stage was ever observed).
func (d Dashboard) StagesString() string {
	if len(d.Stages) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  pipeline stages:       (calls / errors / avg latency / avg in -> out)\n")
	for _, s := range d.Stages {
		fmt.Fprintf(&b, "    %-12s %6d  %4d  %10v  %8.1f -> %.1f",
			s.Stage+":", s.Count, s.Errors, s.AvgLatency.Round(time.Microsecond), s.AvgIn, s.AvgOut)
		if s.ExemplarTraceID != "" {
			fmt.Fprintf(&b, "  worst=%v trace=%s", s.MaxLatency.Round(time.Microsecond), s.ExemplarTraceID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
