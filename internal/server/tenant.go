package server

// Multi-tenant serving mode. One Server hosts many banks' knowledge bases;
// every query names its tenant (header or path), passes the admission
// controller (token bucket → per-tenant concurrency → global slots with
// weighted fair queueing), and routes to that tenant's engine from the
// registry — the tenant and admission steps of the front door (query.go).
// Shed requests are 429 + Retry-After by construction — admission never
// answers 5xx. docs/MULTITENANCY.md is the operator-facing description.

import (
	"fmt"
	"math"
	"net/http"

	"uniask/internal/core"
	"uniask/internal/eventlog"
	"uniask/internal/index"
	"uniask/internal/monitor"
	"uniask/internal/resilience"
	"uniask/internal/search"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// TenantHeader names the request's tenant in multi-tenant serving. The
// /t/{tenant}/api/... path form takes precedence when both are present.
const TenantHeader = "X-Uniask-Tenant"

// NewMultiTenant creates a server hosting one engine per tenant. The
// registry builds tenant engines lazily (its factory should call
// ObserveEngine so per-tenant engines feed the shared dashboard); ctrl is
// the admission front door (nil = no admission control); tracer is the
// shared trace store all tenant engines alias; pool, when non-nil,
// contributes per-tenant cache-partition gauges to the dashboard.
func NewMultiTenant(reg *tenant.Registry, ctrl *tenant.Controller, tracer *trace.Tracer, pool *search.CachePool) *Server {
	s := &Server{
		Metrics:   monitor.New(),
		Feedback:  &FeedbackStore{},
		Log:       eventlog.New(),
		sessions:  make(map[string]string),
		Tenants:   reg,
		Admission: ctrl,
		Tracer:    tracer,
	}
	if ctrl != nil {
		s.Metrics.SetTenantSource(func() []monitor.TenantGauge { return tenantGauges(ctrl, pool) })
	}
	s.wireSessionMetrics()
	return s
}

// ObserveEngine wires a tenant engine into the server's shared metrics —
// pipeline observer and breaker hook — mirroring what New does for the
// single engine. The registry factory's onCreate should call it, since
// tenant engines are built after the server exists.
func (s *Server) ObserveEngine(eng *core.Engine) {
	eng.SetObserver(s.Metrics)
	eng.SetBreakerNotify(s.Metrics.RecordBreakerTransition)
}

// tenantGauges joins the admission controller's stats with the cache
// pool's partition stats into dashboard rows.
func tenantGauges(ctrl *tenant.Controller, pool *search.CachePool) []monitor.TenantGauge {
	stats := ctrl.Stats()
	var parts map[string]search.PartitionStats
	if pool != nil {
		ps := pool.Stats()
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
// segment wins, then the X-Uniask-Tenant header ("" when neither names one).
func (s *Server) requestTenant(r *http.Request) string {
	if id := r.PathValue("tenant"); id != "" {
		return id
	}
	return r.Header.Get(TenantHeader)
}

// resolveTenant is the front door's tenant step: it names the request's
// tenant and runs checkTenant on it. Single-tenant serving has no tenants
// ("", true). On refusal it writes the response and returns ok=false.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.Tenants == nil {
		return "", true
	}
	id := s.requestTenant(r)
	if id == "" {
		httpError(w, http.StatusBadRequest, "tenant required ("+TenantHeader+" header or /t/{tenant}/api/... path)")
		return "", false
	}
	return id, s.checkTenant(w, id)
}

// checkTenant is the single tenant validation: a malformed id is a 400, a
// tenant the registry does not know a 404 — refused before admission so a
// stream of typoed or hostile tenant IDs cannot grow controller state. On
// refusal it writes the response and returns false.
func (s *Server) checkTenant(w http.ResponseWriter, id string) bool {
	if err := tenant.ValidateID(id); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	if !s.Tenants.AllowUnknown {
		if ov := s.Tenants.Overrides(); ov == nil || !ov.Known(id) {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q (add it to the overrides file to onboard)", id))
			return false
		}
	}
	return true
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
	if eng, ok := s.Tenants.EngineIfActive(id); ok {
		out.Active = true
		out.Segments = eng.SegmentStats()
	}
	if !out.Active && out.Gauges == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("tenant %q has no activity (never admitted, engine not built)", id))
		return
	}
	writeJSON(w, out)
}

// tenantHealthResponse is the multi-tenant /api/health payload. Scoped to a
// tenant it reports that tenant's engine breakers and admission state;
// unscoped it aggregates across active tenants.
type tenantHealthResponse struct {
	Status   string                     `json:"status"`
	Tenant   string                     `json:"tenant,omitempty"`
	Active   bool                       `json:"active"`
	Breakers []resilience.BreakerStatus `json:"breakers,omitempty"`
	// Shedding reports whether the tenant has shed requests recently (any
	// rejection counted) — the first thing the throttling runbook checks.
	Shed    uint64 `json:"shed"`
	Tenants int    `json:"tenants,omitempty"`
}

func (s *Server) handleTenantHealth(w http.ResponseWriter, r *http.Request) {
	id := s.requestTenant(r)
	if id == "" {
		// Unscoped probe: degraded if any active tenant's breaker is open.
		active := s.Tenants.Active()
		var all []resilience.BreakerStatus
		for _, tid := range active {
			if eng, ok := s.Tenants.EngineIfActive(tid); ok {
				all = append(all, eng.Breakers()...)
			}
		}
		status, code, open := breakerHealth(all)
		writeJSONStatus(w, code, tenantHealthResponse{Status: status, Active: len(active) > 0, Breakers: open, Tenants: len(active)})
		return
	}
	if !s.checkTenant(w, id) {
		return
	}
	resp := tenantHealthResponse{Status: "idle", Tenant: id}
	if s.Admission != nil {
		if st, ok := s.Admission.StatsFor(id); ok {
			resp.Shed = st.Shed
		}
	}
	eng, ok := s.Tenants.EngineIfActive(id)
	if !ok {
		// Onboarded but never queried: healthy, just not built yet.
		writeJSON(w, resp)
		return
	}
	resp.Active = true
	resp.Breakers = eng.Breakers()
	var code int
	resp.Status, code, _ = breakerHealth(resp.Breakers)
	writeJSONStatus(w, code, resp)
}
