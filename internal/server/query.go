package server

// The query path of Figure 1, said once: one front door (enter) that every
// query endpoint passes, one turn function that runs an ask — one-shot or
// conversational — and one finish step that accounts for it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"uniask/internal/core"
	"uniask/internal/llm"
	"uniask/internal/search"
	"uniask/internal/session"
	"uniask/internal/sse"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// identify is the part of the front door that needs no engine, shared with
// the session bookkeeping endpoints: auth → body/param check → tenant.
// valid is the endpoint's verdict on its own input and bad the 400 message
// when it is malformed. On refusal identify writes the response and returns
// ok=false.
func (s *Server) identify(w http.ResponseWriter, r *http.Request, valid bool, bad string) (user, tenantID string, ok bool) {
	if user = s.auth(r); user == "" {
		httpError(w, http.StatusUnauthorized, "login required")
		return "", "", false
	}
	if !valid {
		httpError(w, http.StatusBadRequest, bad)
		return "", "", false
	}
	tenantID = requestTenant(r)
	return user, tenantID, s.checkTenant(w, tenantID)
}

// query is one request past the front door: whom it acts for, the engine
// that serves it, its trace root and the admission slot it holds.
type query struct {
	s       *Server
	user    string
	tenant  string           // tenant.Default when the request named none
	sess    *session.Session // the conversation a /sessions/{sid}/ path names, else nil
	eng     *core.Engine
	ctx     context.Context // tenant-tagged and, when traced, carrying the root span
	treq    *trace.Request  // nil (and nil-safe) when the endpoint opens no trace
	start   time.Time
	release func(time.Duration)
}

// enter is the one front door of the query endpoints:
//
//	auth → body/param check → tenant → session → admission → engine → trace root
//
// The session a path names is resolved before admission, so a bogus session
// ID cannot consume an admission slot. op names the trace root, whose id
// goes out in X-Uniask-Trace-Id ("" opens no trace: a click is not a query).
// On refusal enter writes the response itself — shed traffic gets 429 with
// Retry-After, never 5xx — and returns ok=false; otherwise the caller must
// defer q.close().
func (s *Server) enter(w http.ResponseWriter, r *http.Request, op string, valid bool, bad string) (*query, bool) {
	user, tenantID, ok := s.identify(w, r, valid, bad)
	if !ok {
		return nil, false
	}
	q := &query{s: s, user: user, tenant: tenantID, ctx: r.Context(), release: func(time.Duration) {}}
	if sid := r.PathValue("sid"); sid != "" {
		sess, err := s.Sessions.Get(tenantID, sid)
		if err != nil {
			sessionError(w, err)
			return nil, false
		}
		q.sess = &sess
	}
	if !s.admit(w, q) {
		return nil, false
	}
	q.start = time.Now()
	if op == "" {
		return q, true
	}
	q.ctx, q.treq = q.eng.Tracer.StartRequestRate(q.ctx, op, s.Tenants.Limits(tenantID).TraceSampleRate)
	if id := q.treq.TraceID(); id != "" {
		w.Header().Set(TraceIDHeader, id)
	}
	root := q.treq.Root()
	root.SetAttr("user", user)
	if q.sess != nil {
		root.SetAttr("session", q.sess.ID)
		root.SetAttr("turn", strconv.Itoa(len(q.sess.Turns)))
	}
	if tenantID != tenant.Default {
		root.SetAttr("tenant", tenantID)
	}
	return q, true
}

// admit is the middle of the front door: q.tenant takes an admission slot
// (q.release) when there is an admission controller, the registry resolves
// its engine (q.eng) and the context is tagged with the tenant. For the
// default tenant of a one-bank deployment that is no lock and no allocation.
// On refusal it writes the response.
func (s *Server) admit(w http.ResponseWriter, q *query) bool {
	if s.Admission != nil {
		release, rej := s.Admission.Admit(q.ctx, q.tenant)
		if rej != nil {
			writeRejection(w, rej)
			return false
		}
		q.release = release
	}
	eng, err := s.Tenants.Engine(q.tenant)
	if err != nil {
		q.release(0)
		if errors.Is(err, tenant.ErrUnknownTenant) {
			httpError(w, http.StatusNotFound, err.Error())
		} else {
			httpError(w, http.StatusInternalServerError, "tenant engine unavailable: "+err.Error())
		}
		return false
	}
	q.eng, q.ctx = eng, tenant.WithID(q.ctx, q.tenant)
	return true
}

// close ends the request: the trace root closes (tail sampling decides what
// is kept) and the admission slot is released with the latency the tenant's
// p99 window learns from.
func (q *query) close() {
	q.treq.End()
	q.release(time.Since(q.start))
}

// finish is the one accounting step of a query: root-span status and the
// Figure-3 query and degradation counters. A degraded outcome marks the
// whole trace degraded, which tail sampling always retains. answer is nil
// for a bare search, which has no guardrail verdict to count.
func (q *query) finish(err error, degradedParts []string, answer *core.Response) {
	latency := time.Since(q.start)
	root := q.treq.Root()
	if err != nil {
		root.SetError(err)
		q.s.Metrics.RecordQuery(q.user, latency, "", true)
		return
	}
	if len(degradedParts) > 0 {
		root.SetStatus(trace.StatusDegraded)
		root.SetAttr("degradedParts", strings.Join(degradedParts, ","))
	}
	q.s.Metrics.RecordDegraded(degradedParts)
	guardrail := ""
	if answer != nil {
		guardrail = answer.Guardrail.String()
	}
	q.s.Metrics.RecordQuery(q.user, latency, guardrail, false)
}

type docResponse struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent"`
	Title   string  `json:"title"`
	Snippet string  `json:"snippet"`
	Score   float64 `json:"score"`
}

// docViews is the one ranked-results → wire view: the first max results,
// each with a word-boundary snippet (nil for no results).
func docViews(results []search.Result, max int) []docResponse {
	if len(results) > max {
		results = results[:max]
	}
	var out []docResponse
	for _, d := range results {
		out = append(out, docResponse{
			ID: d.ChunkID, Parent: d.ParentID, Title: d.Title,
			Snippet: snippet(d.Content, 160), Score: d.Score,
		})
	}
	return out
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	text := r.URL.Query().Get("q")
	q, ok := s.enter(w, r, "search", strings.TrimSpace(text) != "", "q required")
	if !ok {
		return
	}
	defer q.close()
	hits, err := q.eng.Search(q.ctx, text)
	q.finish(err, hits.Degradation.Parts(), nil)
	if err != nil {
		httpErrorTraced(w, queryErrorStatus(err), "search failed", q.treq.TraceID())
		return
	}
	body := hits.Render(searchBody)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// searchBody is the /api/search body for a ranking: its first 20 results,
// encoded as writeJSON encodes them (trailing newline included). A cached
// ranking renders it once, on the query-cache entry (search.Hits.Render).
func searchBody(results []search.Result) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(docViews(results, 20))
	return buf.Bytes()
}

// askRequest is the question payload of both ask endpoints.
type askRequest struct {
	Question string `json:"question"`
}

// read decodes the payload and reports whether it carries a question.
func (req *askRequest) read(r *http.Request) bool {
	return json.NewDecoder(r.Body).Decode(req) == nil && strings.TrimSpace(req.Question) != ""
}

// askResponse mirrors what the FrontEnd renders: the answer (or apology),
// its validity, the guardrail outcome and the document list.
type askResponse struct {
	Answer      string        `json:"answer"`
	AnswerValid bool          `json:"answerValid"`
	Guardrail   string        `json:"guardrail"`
	Citations   []string      `json:"citations,omitempty"`
	Documents   []docResponse `json:"documents"`
	// Degraded marks answers computed at reduced fidelity (shed vector
	// legs, skipped expansion, extractive fallback); DegradedParts names
	// what was shed.
	Degraded      bool     `json:"degraded,omitempty"`
	DegradedParts []string `json:"degradedParts,omitempty"`
	// TraceID identifies this request's trace (also in X-Uniask-Trace-Id):
	// GET /api/traces/{traceId} returns the full span tree.
	TraceID string `json:"traceId,omitempty"`
}

// handleAsk answers POST /api/ask: a one-turn conversation with nobody
// listening to the stream.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req askRequest
	q, ok := s.enter(w, r, "ask", req.read(r), "question required")
	if !ok {
		return
	}
	defer q.close()
	s.turn(w, r, q, req.Question, nil)
}

// turn runs one ask and writes its outcome — the only path from a handler
// to the engine's ask flow. A conversational turn (q.sess and sw set)
// rewrites against the transcript, streams citations and tokens as SSE
// events, extends the transcript and ends with a done event; a one-shot ask
// (both nil) has no history, listens to nothing and writes one JSON body. It
// reports whether the client went away mid-turn, in which case nothing was
// written or counted.
func (s *Server) turn(w http.ResponseWriter, r *http.Request, q *query, question string, sw *sse.Writer) (disconnected bool) {
	var (
		history   []llm.Exchange
		ev        core.StreamEvents
		turnIndex int
		streamed  bool
	)
	if q.sess != nil {
		history, turnIndex = q.sess.History(), len(q.sess.Turns)
		ev.OnCitations = func(results []search.Result) {
			docs := append([]docResponse{}, docViews(results, 10)...)
			sw.Event("citations", mustJSON(sseCitations{Documents: docs}))
		}
		ev.OnToken = func(chunk string) error {
			streamed = true
			return sw.Event("token", mustJSON(sseToken{Text: chunk}))
		}
	}
	resp, err := q.eng.AskConversational(q.ctx, question, history, ev)
	if cerr := r.Context().Err(); errors.Is(cerr, context.Canceled) {
		// The client went away mid-turn: nothing left to write to.
		q.treq.Root().SetError(cerr)
		return true
	}
	q.finish(err, resp.DegradedParts, &resp)
	traceID := q.treq.TraceID()
	docs := docViews(resp.Documents, 10)
	switch {
	case q.sess == nil && err != nil:
		httpErrorTraced(w, queryErrorStatus(err), "ask failed", traceID)
	case q.sess == nil:
		writeJSON(w, askResponse{
			Answer:        resp.Answer,
			AnswerValid:   resp.AnswerValid,
			Guardrail:     resp.Guardrail.String(),
			Citations:     resp.Citations,
			Documents:     docs,
			Degraded:      resp.Degraded,
			DegradedParts: resp.DegradedParts,
			TraceID:       traceID,
		})
	case err != nil:
		// A hard engine error still terminates the stream with done — an
		// SSE response never turns into a dangling connection or a late 5xx.
		sw.Event("done", mustJSON(sseDone{Error: "ask failed", TraceID: traceID, Turn: turnIndex}))
	default:
		turn := session.Turn{
			Question:       question,
			RewrittenQuery: resp.RewrittenQuery,
			Answer:         resp.Answer,
			TraceID:        traceID,
			Degraded:       resp.Degraded,
			DegradedParts:  resp.DegradedParts,
		}
		for _, d := range docs {
			turn.Documents = append(turn.Documents, session.TurnDoc{ChunkID: d.ID, ParentID: d.Parent, Title: d.Title})
		}
		// The session may have expired or been evicted while the turn ran; the
		// turn still completes for this client, the next one gets ErrNotFound.
		s.Sessions.AppendTurn(q.tenant, q.sess.ID, turn)
		if streamed && slices.Contains(resp.DegradedParts, "generation") {
			// Mid-stream LLM death: the tokens already sent are a prefix of an
			// answer that no longer exists. Tell the client to discard them and
			// render the extractive fallback.
			sw.Event("fallback", mustJSON(sseFallback{Answer: resp.Answer}))
		}
		sw.Event("done", mustJSON(sseDone{
			Answer:         resp.Answer,
			AnswerValid:    resp.AnswerValid,
			Guardrail:      resp.Guardrail.String(),
			RewrittenQuery: resp.RewrittenQuery,
			Degraded:       resp.Degraded,
			DegradedParts:  resp.DegradedParts,
			TraceID:        traceID,
			Turn:           turnIndex,
		}))
	}
	return false
}
