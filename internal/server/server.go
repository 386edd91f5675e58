// Package server implements UniAsk's BackEnd service (§3): a REST layer
// with login, search/ask and feedback endpoints, a feedback store that
// collects the granular feedback form of §8, and monitoring hooks feeding
// the Figure-3 dashboard. The production deployment runs this as a
// Kubernetes microservice behind a separate FrontEnd; here both are one
// net/http server (the FrontEnd's search box and feedback modal are the
// JSON API's clients).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"uniask/internal/core"
	"uniask/internal/monitor"
	"uniask/internal/resilience"
	"uniask/internal/search"
	"uniask/internal/session"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// TraceIDHeader is the response header carrying the request's trace id on
// the query endpoints — the handle an operator pastes into /api/traces/{id}
// when a user reports a slow or wrong answer.
const TraceIDHeader = "X-Uniask-Trace-Id"

// Feedback is one granular feedback submission, mirroring the §8 pop-up
// modal fields. The server validates it and counts it on the dashboard; it
// keeps no submission.
type Feedback struct {
	// User is the session user that submitted the feedback.
	User string `json:"user"`
	// Query is the question the feedback refers to.
	Query string `json:"query"`
	// Helpful answers "Was the answer helpful?".
	Helpful bool `json:"helpful"`
	// RelevantDocs answers "Did the system retrieve relevant documents?".
	RelevantDocs bool `json:"relevantDocs"`
	// Rating is the 1-5 experience score (1-2 negative, 3-5 positive).
	Rating int `json:"rating"`
	// Links lets the user point at the documents holding the right answer.
	Links []string `json:"links,omitempty"`
	// Comments is the free-text field.
	Comments string `json:"comments,omitempty"`
}

// Positive reports whether the rating counts as positive (3-5 per §8).
func (f Feedback) Positive() bool { return f.Rating >= 3 }

// validate refuses a rating outside 1-5 and a submission without a user.
func (f Feedback) validate() error {
	if f.Rating < 1 || f.Rating > 5 {
		return fmt.Errorf("server: rating %d out of range 1-5", f.Rating)
	}
	if f.User == "" {
		return errors.New("server: feedback requires a user")
	}
	return nil
}

// DefaultRequestTimeout caps how long one /api/ask or /api/search request
// may run before the server gives up with 503 (a hung dependency must not
// wedge handler goroutines indefinitely).
const DefaultRequestTimeout = 10 * time.Second

// Server is the REST backend.
type Server struct {
	Metrics *monitor.Metrics
	// RequestTimeout is the per-request deadline for the query endpoints
	// (0 = DefaultRequestTimeout; negative disables the deadline). SSE
	// session streams are exempt — they use per-write deadlines instead.
	RequestTimeout time.Duration

	// Sessions is the conversational session store (created by the
	// constructor; replace before serving to customize TTL or budget).
	Sessions *session.Store
	// SSEHeartbeat is the keep-alive comment interval on idle session
	// streams (0 = DefaultSSEHeartbeat; negative disables heartbeats).
	SSEHeartbeat time.Duration

	// Tenants holds the engines the server routes to. A query names its
	// tenant (X-Uniask-Tenant header or /t/{tenant}/api/... path) or, naming
	// none, goes to the registry's default tenant — the only tenant of the
	// server New builds, and one a NewMultiTenant registry does not have.
	Tenants *tenant.Registry
	// Admission, when set, is passed by every query before it touches an
	// engine; shed requests get 429 + Retry-After, never 5xx.
	Admission *tenant.Controller
	// Tracer is the tracer whose store answers /api/traces: the one every
	// engine of the registry records into.
	Tracer *trace.Tracer

	// cachePool, when set, is the shared query-cache pool whose partition
	// stats join the dashboard's tenant rows.
	cachePool *search.CachePool

	mu       sync.Mutex
	sessions map[string]string // token -> user
	seq      int
}

// New creates the server of a one-bank deployment: NewMultiTenant over the
// registry whose only tenant is the default one, served by engine, with no
// admission control.
func New(engine *core.Engine) *Server {
	return NewMultiTenant(tenant.Single(engine), nil, engine.Tracer, nil)
}

// withDeadline bounds a query handler: the request context gets the
// configured deadline, so a hung dependency surfaces as a deadline error
// the handler maps to 503 instead of a goroutine stuck forever.
func (s *Server) withDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		timeout := s.RequestTimeout
		if timeout == 0 {
			timeout = DefaultRequestTimeout
		}
		if timeout < 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// queryErrorStatus maps an Ask/Search error to its HTTP status: 503 when the
// backend could not serve the request right now — a deadline that fired or
// an open circuit — 500 otherwise.
func queryErrorStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, resilience.ErrBreakerOpen) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// route is one row of the API table. Handler registers every row bare and
// once more under /t/{tenant}.
type route struct {
	method, path string
	handler      http.HandlerFunc
}

// routes is the API surface, each path written once.
func (s *Server) routes() []route {
	return []route{
		{"POST", "/api/login", s.handleLogin},
		{"POST", "/api/ask", s.withDeadline(s.handleAsk)},
		{"GET", "/api/search", s.withDeadline(s.handleSearch)},
		{"POST", "/api/feedback", s.handleFeedback},
		// Session routes: the ask stream is deliberately NOT wrapped in
		// withDeadline — an SSE stream outlives any per-request deadline; the
		// sse.Writer's per-write deadline bounds each frame instead.
		{"POST", "/api/sessions", s.handleSessionCreate},
		{"GET", "/api/sessions/{sid}", s.handleSessionGet},
		{"POST", "/api/sessions/{sid}/ask", s.handleSessionAsk},
		{"POST", "/api/sessions/{sid}/feedback", s.withDeadline(s.handleSessionFeedback)},
		{"GET", "/api/dashboard", s.handleDashboard},
		{"GET", "/api/traces", s.handleTraces},
		{"GET", "/api/traces/{id}", s.handleTraceByID},
		{"GET", "/api/health", s.handleHealth},
	}
}

// maxBodyBytes caps the body of every POST route. Every payload the API
// takes is a small JSON object; a larger one is refused, not buffered.
const maxBodyBytes = 1 << 20

// capBody bounds a POST handler's body: a declared Content-Length over
// maxBodyBytes is a 413 before the handler runs, and a chunked body is cut
// off at the cap, so the handler's decode fails and it answers its own 400.
func capBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > maxBodyBytes {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		h := rt.handler
		if rt.method == "POST" {
			h = capBody(h)
		}
		mux.HandleFunc(rt.method+" "+rt.path, h)
		// Path-scoped alias: /t/{tenant}/api/... pins the tenant without a
		// header, so per-tenant dashboards and traces are plain links.
		mux.HandleFunc(rt.method+" /t/{tenant}"+rt.path, h)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Profiling endpoints for live CPU/heap/goroutine capture against a
	// running instance. Registered explicitly because this mux is not
	// http.DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /", s.handleFrontend)
	return mux
}

// loginRequest is the login payload. The production system delegates to the
// corporate identity provider; the reproduction accepts any non-empty
// employee id and issues a bearer token.
type loginRequest struct {
	User string `json:"user"`
}

type loginResponse struct {
	Token string `json:"token"`
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req loginRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || strings.TrimSpace(req.User) == "" {
		httpError(w, http.StatusBadRequest, "user required")
		return
	}
	s.mu.Lock()
	s.seq++
	token := fmt.Sprintf("tok-%s-%06d", req.User, s.seq)
	s.sessions[token] = req.User
	s.mu.Unlock()
	writeJSON(w, loginResponse{Token: token})
}

// auth resolves the bearer token to a user ("" when unauthenticated).
func (s *Server) auth(r *http.Request) string {
	h := r.Header.Get("Authorization")
	token := strings.TrimPrefix(h, "Bearer ")
	if token == h {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var f Feedback
	user, _, ok := s.identify(w, r, json.NewDecoder(r.Body).Decode(&f) == nil, "invalid feedback")
	if !ok {
		return
	}
	f.User = user
	if err := f.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.Metrics.RecordFeedback(f.Positive())
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	snap := s.dashboard()
	if id := requestTenant(r); id != tenant.Default {
		s.writeTenantDashboard(w, snap, id)
		return
	}
	writeJSON(w, snap)
}

// traceSummary is one row of the GET /api/traces listing.
type traceSummary struct {
	TraceID    string    `json:"traceId"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Status     string    `json:"status"`
	// Retained says why tail sampling kept the trace ("error", "degraded",
	// "slow", or "sampled" for the ordinary ring).
	Retained string `json:"retained"`
	Spans    int    `json:"spans"`
}

// summarize builds a trace's listing row.
func summarize(td *trace.TraceData) traceSummary {
	return traceSummary{
		TraceID:    td.TraceID,
		Name:       td.Name,
		Start:      td.Start,
		DurationMS: float64(td.Duration) / float64(time.Millisecond),
		Status:     td.Status.String(),
		Retained:   td.Retained,
		Spans:      len(td.Spans),
	}
}

// defaultTraceListLimit caps an unfiltered /api/traces listing.
const defaultTraceListLimit = 50

// handleTraces lists retained traces, newest first. Query parameters
// compose conjunctively:
//
//	q            TraceQL-lite span matcher, e.g. name=retrieval dur>50ms status=error
//	min_duration whole-trace duration floor (Go duration literal)
//	status       trace outcome: ok | error | degraded
//	stage        keep traces containing a span with this name ("retrieval", ...)
//	shard        keep traces that touched this shard id
//	tenant       keep traces whose root span carries tenant=<id> (multi-tenant
//	             serving; /t/{tenant}/api/traces pins this filter)
//	session      keep traces whose spans carry session=<id> — every turn of a
//	             conversation, in order
//	limit        row cap (default 50)
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	store := s.Tracer.Store()
	qp := r.URL.Query()

	tq, err := trace.Parse(qp.Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var minDur time.Duration
	if v := qp.Get("min_duration"); v != "" {
		if minDur, err = time.ParseDuration(v); err != nil {
			httpError(w, http.StatusBadRequest, "min_duration: "+err.Error())
			return
		}
	}
	var (
		wantStatus trace.Status
		hasStatus  bool
	)
	if v := qp.Get("status"); v != "" {
		if wantStatus, hasStatus = trace.ParseStatus(v); !hasStatus {
			httpError(w, http.StatusBadRequest, "status: want ok, error or degraded")
			return
		}
	}
	stage := qp.Get("stage")
	// Span-attribute filters: keep traces with a span carrying key=value
	// (the per-shard fan-out spans carry shard=, root spans tenant= and
	// session=).
	attrs := map[string]string{"shard": qp.Get("shard"), "tenant": qp.Get("tenant"), "session": qp.Get("session")}
	if id := r.PathValue("tenant"); id != "" {
		attrs["tenant"] = id
	}
	limit := defaultTraceListLimit
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "limit: want a positive integer")
			return
		}
		limit = n
	}

	filter := func(td *trace.TraceData) bool {
		if td.Duration < minDur {
			return false
		}
		if hasStatus && td.Status != wantStatus {
			return false
		}
		if stage != "" {
			if _, ok := td.SpanByName(stage); !ok {
				return false
			}
		}
		for key, want := range attrs {
			if want != "" && !traceHasAttr(td, key, want) {
				return false
			}
		}
		return tq.MatchTrace(td)
	}
	out := []traceSummary{}
	for _, td := range store.List(filter, limit) {
		out = append(out, summarize(td))
	}
	writeJSON(w, out)
}

// traceHasAttr reports whether any span of the trace carries key=value.
func traceHasAttr(td *trace.TraceData, key, value string) bool {
	for i := range td.Spans {
		for _, a := range td.Spans[i].Attrs {
			if a.Key == key && a.Value == value {
				return true
			}
		}
	}
	return false
}

// traceDetail is the GET /api/traces/{id} payload: the listing row plus the
// full span tree.
type traceDetail struct {
	traceSummary
	Tree []*trace.Node `json:"tree"`
}

// handleTraceByID returns one trace's span tree. Under /t/{tenant}/ the
// trace must belong to that tenant — the front door stamps tenant=<id> on
// every root span, the same attribute the scoped listing filters on — or it
// reads as not found, like any other id the caller cannot see.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	td, ok := s.Tracer.Store().Get(r.PathValue("id"))
	if id := r.PathValue("tenant"); ok && id != "" {
		ok = traceHasAttr(td, "tenant", id)
	}
	if !ok {
		httpError(w, http.StatusNotFound, "trace not found (evicted, unsampled, or never existed)")
		return
	}
	writeJSON(w, traceDetail{traceSummary: summarize(td), Tree: td.Tree()})
}

// healthResponse is the /api/health readiness payload.
type healthResponse struct {
	Status string `json:"status"`
	// Tenant is the tenant a scoped probe asked about.
	Tenant string `json:"tenant,omitempty"`
	// Active says whether any engine in scope is built; Tenants counts them
	// on the unscoped probe.
	Active  bool `json:"active"`
	Tenants int  `json:"tenants,omitempty"`
	// Breakers lists every circuit breaker of the engines in scope, whatever
	// its state.
	Breakers []resilience.BreakerStatus `json:"breakers,omitempty"`
	// Shed counts the requests admission refused the scoped tenant — the
	// first thing the throttling runbook checks.
	Shed uint64 `json:"shed"`
}

// handleHealth is the readiness probe: 200 while every circuit breaker in
// scope is closed (or half-open — the system is probing its way back), 503
// "degraded" while any is open and queries would be served degraded, and 200
// "idle" while no engine in scope is built yet. Under /t/{tenant} (or the
// tenant header) the scope is that tenant's engine; unscoped it is every
// active tenant's — on a one-bank deployment its one engine.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	id := requestTenant(r)
	resp := healthResponse{Status: "idle", Tenant: id}
	engines := s.Tenants.Active()
	if id == tenant.Default {
		resp.Tenants = len(engines)
	} else {
		if !s.checkTenant(w, id) {
			return
		}
		if s.Admission != nil {
			st, _ := s.Admission.StatsFor(id)
			resp.Shed = st.Shed
		}
		engines = slices.DeleteFunc(engines, func(t tenant.ActiveTenant) bool { return t.ID != id })
	}
	code := http.StatusOK
	if resp.Active = len(engines) > 0; resp.Active {
		resp.Status = "ok"
	}
	for _, t := range engines {
		for _, b := range t.Engine.Breakers() {
			resp.Breakers = append(resp.Breakers, b)
			if b.State == "open" {
				resp.Status, code = "degraded", http.StatusServiceUnavailable
			}
		}
	}
	writeJSONStatus(w, code, resp)
}

// Serve runs the server until ctx is cancelled.
func (s *Server) Serve(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errCh:
		return err
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSONStatus is writeJSON with an explicit HTTP status code.
func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpErrorTraced(w, code, msg, "")
}

// httpErrorTraced is httpError plus the request's trace id, so a 500/503
// body carries the handle for /api/traces/{id} — the error trace is always
// tail-retained, so the id stays resolvable.
func httpErrorTraced(w http.ResponseWriter, code int, msg, traceID string) {
	body := map[string]string{"error": msg}
	if traceID != "" {
		body["traceId"] = traceID
	}
	writeJSONStatus(w, code, body)
}

// snippet truncates text to at most max bytes, on a word boundary when
// there is one past the first byte, and never inside a UTF-8 rune.
func snippet(text string, max int) string {
	if len(text) <= max {
		return text
	}
	for max > 0 && !utf8.RuneStart(text[max]) {
		max--
	}
	cut := text[:max]
	if i := strings.LastIndexByte(cut, ' '); i > 0 {
		cut = cut[:i]
	}
	return cut + "…"
}
