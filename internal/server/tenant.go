package server

// Tenancy. One Server hosts one engine per tenant, from a registry: every
// query names its tenant (header or path) or, naming none, resolves to the
// registry's default tenant; it passes the admission controller when there
// is one (token bucket → per-tenant concurrency → global slots with
// weighted fair queueing) and routes to that tenant's engine — the tenant
// and admission steps of the front door (query.go). A one-bank deployment is
// the registry with only the default tenant. Shed requests are 429 +
// Retry-After by construction — admission never answers 5xx.
// docs/MULTITENANCY.md is the operator-facing description.

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"uniask/internal/core"
	"uniask/internal/index"
	"uniask/internal/monitor"
	"uniask/internal/search"
	"uniask/internal/session"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// TenantHeader names the request's tenant. The /t/{tenant}/api/... path
// form takes precedence when both are present.
const TenantHeader = "X-Uniask-Tenant"

// NewMultiTenant creates a server over a registry of per-tenant engines. The
// server's metrics registry becomes the pipeline observer and
// breaker-transition hook of every engine the registry holds, now or once
// built — installed once per engine, so an observer a caller composes on top
// afterwards stays. ctrl is the admission front door (nil = no admission
// control); tracer is the trace store all engines record into; pool, when
// non-nil, contributes per-tenant cache-partition gauges to the dashboard.
func NewMultiTenant(reg *tenant.Registry, ctrl *tenant.Controller, tracer *trace.Tracer, pool *search.CachePool) *Server {
	s := &Server{
		Metrics:   monitor.New(),
		Feedback:  &FeedbackStore{},
		Sessions:  session.NewStore(session.Config{}),
		sessions:  make(map[string]string),
		Tenants:   reg,
		Admission: ctrl,
		Tracer:    tracer,
		cachePool: pool,
	}
	reg.Observe(func(_ string, eng *core.Engine) {
		eng.SetObserver(s.Metrics)
		eng.SetBreakerNotify(s.Metrics.RecordBreakerTransition)
	})
	return s
}

// dashboard is the full Figure-3 page behind GET /api/dashboard: the metrics
// registry's counters, stages and breakers, then one pass over the active
// engines for the shard, segment, cache and rerank rows — so a tenant built
// mid-poll is in every section or in none — then the tenant and session rows.
func (s *Server) dashboard() monitor.Dashboard {
	d := s.Metrics.Snapshot()
	// The cache gauge is the sum over the active engines' caches; the
	// per-tenant split is on the tenant rows.
	var cache search.CacheStats
	for _, t := range s.Tenants.Active() {
		eng := t.Engine
		if sh := eng.Sharded(); sh != nil {
			for _, st := range sh.ShardStats() {
				d.Shards = append(d.Shards, monitor.ShardGauge{
					Tenant: t.ID, Shard: st.Shard, Docs: st.Docs, Live: st.Live,
					Tombstones: st.Tombstones, Postings: st.Postings,
					Queries: st.Queries, AvgQueryLatency: st.AvgQueryLatency,
				})
			}
		}
		for i, st := range eng.SegmentStats() {
			d.Segments = append(d.Segments, monitor.SegmentGauge{
				Tenant: t.ID, Shard: i, MemtableDocs: st.MemtableDocs,
				Segments: st.Segments, Backlog: st.Backlog,
				Seals: st.Seals, Compactions: st.Compactions,
				ChunksSealed: st.ChunksSealed, ChunksRewritten: st.ChunksRewritten,
				StatsKey: st.StatsKey,
			})
		}
		if cs, ok := eng.CacheStats(); ok {
			d.HasCache = true
			cache.Hits += cs.Hits
			cache.Misses += cs.Misses
			cache.Entries += cs.Entries
			cache.DeleteEvictions += cs.DeleteEvictions
		}
		if rr := eng.Searcher.Reranker; rr != nil {
			st := rr.Stats()
			d.Rerank = append(d.Rerank, monitor.RerankGauge{
				Tenant: t.ID, Clicks: st.Clicks,
				Version: st.Version, Drift: st.Drift,
			})
		}
	}
	d.Cache = monitor.CacheGauge{
		Hits: cache.Hits, Misses: cache.Misses, HitRate: cache.HitRate(),
		Entries: cache.Entries, DeleteEvictions: cache.DeleteEvictions,
	}
	if s.Admission != nil {
		d.Tenants = s.tenantGauges()
	}
	st := s.Sessions.Stats()
	d.HasSessions = true
	d.Sessions = monitor.SessionGauge{
		Live: st.Live, Turns: st.Turns,
		Expired: st.Expired, Evicted: st.Evicted,
		OpenStreams:   st.Streams.Open,
		StreamsOpened: st.Streams.Opened,
		StreamsClosed: st.Streams.Closed,
		Heartbeats:    st.Streams.Heartbeats,
		Disconnects:   st.Streams.Disconnects,
	}
	return d
}

// tenantGauges joins the admission controller's stats with the cache
// pool's partition stats into dashboard rows.
func (s *Server) tenantGauges() []monitor.TenantGauge {
	stats := s.Admission.Stats()
	var parts map[string]search.PartitionStats
	if s.cachePool != nil {
		ps := s.cachePool.Stats()
		parts = make(map[string]search.PartitionStats, len(ps))
		for _, p := range ps {
			parts[p.Tenant] = p
		}
	}
	out := make([]monitor.TenantGauge, len(stats))
	for i, st := range stats {
		g := monitor.TenantGauge{
			Tenant: st.Tenant, Class: st.Class.String(),
			Admitted: st.Admitted, Queued: st.Queued, Shed: st.Shed,
			ShedByReason: make(map[string]uint64, len(st.ShedByReason)),
			Inflight:     st.Inflight, P99: st.P99,
			RateLimit: st.RateLimit, MaxConcurrent: st.MaxConcurrent,
		}
		for r, n := range st.ShedByReason {
			g.ShedByReason[string(r)] = n
		}
		if p, ok := parts[st.Tenant]; ok {
			g.HasCache = true
			g.CacheHitRate = p.HitRate()
			g.CacheEntries = p.Entries
		}
		out[i] = g
	}
	return out
}

// requestTenant extracts the request's tenant ID: the /t/{tenant}/ path
// segment wins, then the X-Uniask-Tenant header (tenant.Default when neither
// names one).
func requestTenant(r *http.Request) string {
	if id := r.PathValue("tenant"); id != "" {
		return id
	}
	return r.Header.Get(TenantHeader)
}

// checkTenant is the front door's tenant step, the registry's Check put on
// the wire: no tenant named and no default one to fall back on is a 400, a
// malformed id a 400, a tenant the registry does not serve a 404 — refused
// before admission so a stream of typoed or hostile tenant IDs cannot grow
// controller state. On refusal it writes the response and returns false.
func (s *Server) checkTenant(w http.ResponseWriter, id string) bool {
	switch err := s.Tenants.Check(id); {
	case err == nil:
		return true
	case errors.Is(err, tenant.ErrNoTenant):
		httpError(w, http.StatusBadRequest, "tenant required ("+TenantHeader+" header or /t/{tenant}/api/... path)")
	case errors.Is(err, tenant.ErrUnknownTenant):
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q (add it to the overrides file to onboard)", id))
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
	return false
}

// writeRejection maps a shed request to 429 Too Many Requests with a
// Retry-After header (whole seconds, rounded up, at least 1).
func writeRejection(w http.ResponseWriter, rej *tenant.Rejection) {
	secs := int(math.Ceil(rej.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprintf(w, `{"error":"request shed","tenant":%q,"class":%q,"reason":%q,"retryAfterMs":%d}`+"\n",
		rej.Tenant, rej.Class.String(), string(rej.Reason), rej.RetryAfter.Milliseconds())
}

// tenantDashboard is the per-tenant GET /api/dashboard view: the tenant's
// admission/cache gauge row plus its engine's segment shape when the engine
// is active. The noisy-neighbor runbook (docs/OPERATIONS.md) starts here.
type tenantDashboard struct {
	Tenant   string               `json:"tenant"`
	Active   bool                 `json:"active"`
	Gauges   *monitor.TenantGauge `json:"gauges,omitempty"`
	Segments []index.SegmentStats `json:"segments,omitempty"`
}

func (s *Server) writeTenantDashboard(w http.ResponseWriter, snap monitor.Dashboard, id string) {
	if !s.checkTenant(w, id) {
		return
	}
	out := tenantDashboard{Tenant: id}
	if g, ok := snap.TenantByID(id); ok {
		out.Gauges = &g
	}
	for _, t := range s.Tenants.Active() {
		if t.ID == id {
			out.Active, out.Segments = true, t.Engine.SegmentStats()
		}
	}
	if !out.Active && out.Gauges == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("tenant %q has no activity (never admitted, engine not built)", id))
		return
	}
	writeJSON(w, out)
}
