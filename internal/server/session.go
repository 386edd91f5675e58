package server

// Conversational sessions over SSE: the HTTP face of internal/session.
// POST /api/sessions opens a conversation, POST /api/sessions/{sid}/ask
// streams one turn — citations as soon as retrieval lands, answer tokens as
// the LLM produces them, a terminal done event always — and
// POST /api/sessions/{sid}/feedback folds a click on a cited document into
// the engine's rerank weights. A session turn passes the same front door and
// runs the same turn function as a one-shot ask (query.go); its admission
// slot is held for the stream's duration, so a tenant's open streams count
// against its concurrency quota.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"uniask/internal/rerank"
	"uniask/internal/session"
	"uniask/internal/sse"
)

// DefaultSSEHeartbeat is how often an idle stream gets a keep-alive comment
// so intermediaries don't reap the connection between token bursts.
const DefaultSSEHeartbeat = 15 * time.Second

// tenantSessionCap resolves the per-tenant live-session cap for Create from
// the tenant's limits: maxSessions when set, session.DefaultTenantSessions
// otherwise; negative means uncapped (0 for the store), which is what the
// default tenant's limits say — the global LRU budget still bounds it.
func (s *Server) tenantSessionCap(tenantID string) int {
	switch max := s.Tenants.Limits(tenantID).MaxSessions; {
	case max == 0:
		return session.DefaultTenantSessions
	case max < 0:
		return 0
	default:
		return max
	}
}

// sessionResponse is the POST /api/sessions and GET /api/sessions/{sid}
// payload.
type sessionResponse struct {
	ID        string         `json:"id"`
	Tenant    string         `json:"tenant,omitempty"`
	CreatedAt time.Time      `json:"createdAt"`
	Turns     []turnResponse `json:"turns"`
}

type turnResponse struct {
	Question       string        `json:"question"`
	RewrittenQuery string        `json:"rewrittenQuery,omitempty"`
	Answer         string        `json:"answer"`
	Documents      []docResponse `json:"documents"`
	TraceID        string        `json:"traceId,omitempty"`
	Degraded       bool          `json:"degraded,omitempty"`
	DegradedParts  []string      `json:"degradedParts,omitempty"`
}

func sessionView(sess session.Session) sessionResponse {
	out := sessionResponse{
		ID: sess.ID, Tenant: sess.Tenant, CreatedAt: sess.CreatedAt,
		Turns: []turnResponse{},
	}
	for _, t := range sess.Turns {
		tr := turnResponse{
			Question:       t.Question,
			RewrittenQuery: t.RewrittenQuery,
			Answer:         t.Answer,
			TraceID:        t.TraceID,
			Degraded:       t.Degraded,
			DegradedParts:  t.DegradedParts,
			Documents:      []docResponse{},
		}
		for _, d := range t.Documents {
			tr.Documents = append(tr.Documents, docResponse{
				ID: d.ChunkID, Parent: d.ParentID, Title: d.Title,
			})
		}
		out.Turns = append(out.Turns, tr)
	}
	return out
}

// handleSessionCreate opens a conversation: POST /api/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	_, tenantID, ok := s.identify(w, r, true, "")
	if !ok {
		return
	}
	sess, err := s.Sessions.Create(tenantID, s.tenantSessionCap(tenantID))
	if err != nil {
		if errors.Is(err, session.ErrTenantBudget) {
			// Session quota exhausted is shed like any other quota: 429,
			// retry when a conversation expires.
			w.Header().Set("Retry-After", "60")
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(sessionView(sess))
}

// handleSessionGet returns the session transcript: GET /api/sessions/{sid}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	_, tenantID, ok := s.identify(w, r, true, "")
	if !ok {
		return
	}
	sess, err := s.Sessions.Get(tenantID, r.PathValue("sid"))
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, sessionView(sess))
}

// sessionError maps a store error to its HTTP status. ErrWrongTenant is
// reported as 404, not 403: confirming a session ID exists under another
// tenant would leak cross-tenant information.
func sessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrNotFound), errors.Is(err, session.ErrWrongTenant):
		httpError(w, http.StatusNotFound, "session not found (expired, evicted, or never existed)")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// sseCitations is the citations event payload: the ranked document list,
// sent as soon as retrieval + rerank land, before the answer streams.
type sseCitations struct {
	Documents []docResponse `json:"documents"`
}

// sseToken is one incremental answer chunk.
type sseToken struct {
	Text string `json:"text"`
}

// sseFallback is the terminal fallback payload: generation degraded after
// streaming may have started, so the client must discard streamed tokens
// and render this answer instead.
type sseFallback struct {
	Answer string `json:"answer"`
}

// sseDone is the terminal event of every stream. Error is set when the turn
// failed outright (no answer); otherwise the answer fields mirror
// askResponse.
type sseDone struct {
	Answer         string   `json:"answer"`
	AnswerValid    bool     `json:"answerValid"`
	Guardrail      string   `json:"guardrail,omitempty"`
	RewrittenQuery string   `json:"rewrittenQuery,omitempty"`
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedParts  []string `json:"degradedParts,omitempty"`
	TraceID        string   `json:"traceId,omitempty"`
	Turn           int      `json:"turn"`
	Error          string   `json:"error,omitempty"`
}

// handleSessionAsk streams one conversational turn over SSE:
// POST /api/sessions/{sid}/ask. Event order on the wire:
//
//	citations  once, when retrieval + rerank land
//	token      zero or more incremental answer chunks
//	fallback   only when generation degraded mid-stream — discard tokens
//	done       always terminal (carries the final answer and trace id)
//
// Comment frames (": hb") are heartbeats. The handler is registered
// without withDeadline: a stream lives as long as the client reads it;
// each individual write still carries the sse.Writer per-write deadline.
// The turn itself is Server.turn, the same function a one-shot ask runs.
func (s *Server) handleSessionAsk(w http.ResponseWriter, r *http.Request) {
	var req askRequest
	q, ok := s.enter(w, r, "session.turn", req.read(r), "question required")
	if !ok {
		return
	}
	defer q.close()

	sw := sse.NewWriter(w, sse.DefaultWriteTimeout)
	s.Sessions.StreamOpened()
	disconnected := false
	defer func() { s.Sessions.StreamClosed(disconnected) }()

	// Heartbeats keep the connection alive through long retrieval or a slow
	// LLM; the ticker dies with the handler.
	hbEvery := s.SSEHeartbeat
	if hbEvery == 0 {
		hbEvery = DefaultSSEHeartbeat
	}
	if hbEvery > 0 {
		hbDone := make(chan struct{})
		defer close(hbDone)
		go func() {
			t := time.NewTicker(hbEvery)
			defer t.Stop()
			for {
				select {
				case <-hbDone:
					return
				case <-t.C:
					if sw.Comment("hb") == nil {
						s.Sessions.StreamHeartbeat()
					}
				}
			}
		}()
	}
	disconnected = s.turn(w, r, q, req.Question, sw)
}

// sessionFeedbackRequest is the click payload: which turn, which cited
// document the user opened.
type sessionFeedbackRequest struct {
	Turn    int    `json:"turn"`
	ChunkID string `json:"chunkId"`
}

// sessionFeedbackResponse reports the recalibration outcome.
type sessionFeedbackResponse struct {
	Applied bool   `json:"applied"`
	Version uint64 `json:"version,omitempty"`
	Clicks  uint64 `json:"clicks,omitempty"`
}

// handleSessionFeedback records a click on a cited document and folds it
// into the tenant engine's rerank weights:
// POST /api/sessions/{sid}/feedback. The click's positive example is the
// opened document; the documents ranked above it are the negatives.
func (s *Server) handleSessionFeedback(w http.ResponseWriter, r *http.Request) {
	var req sessionFeedbackRequest
	// A click passes the same front door as a query — it reads the index
	// and moves the tenant's rerank weights — but is not one: it opens no
	// trace and is counted as feedback, not by the query finish step.
	valid := json.NewDecoder(r.Body).Decode(&req) == nil && strings.TrimSpace(req.ChunkID) != ""
	q, ok := s.enter(w, r, "", valid, "turn and chunkId required")
	if !ok {
		return
	}
	defer q.close()
	sess := q.sess
	if req.Turn < 0 || req.Turn >= len(sess.Turns) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("turn %d out of range (session has %d)", req.Turn, len(sess.Turns)))
		return
	}
	turn := sess.Turns[req.Turn]
	clickedAt := slices.IndexFunc(turn.Documents, func(d session.TurnDoc) bool { return d.ChunkID == req.ChunkID })
	if clickedAt < 0 {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("chunk %q was not cited on turn %d", req.ChunkID, req.Turn))
		return
	}

	s.Metrics.RecordFeedback(true)

	rr := q.eng.Searcher.Reranker
	if rr == nil {
		// No reranker on this engine: the click is counted but cannot move
		// any weights.
		writeJSON(w, sessionFeedbackResponse{Applied: false})
		return
	}
	queryText := turn.RewrittenQuery
	if queryText == "" {
		queryText = turn.Question
	}
	// The clicked document and everything ranked above it, resolved in one
	// batched read under the request's deadline; the query is embedded by the
	// embedder queries use, under the same deadline. A shed embed leaves the
	// vector nil: the click still counts, with semantic feature 0.
	inputs := clickInputs(q, turn.Documents[:clickedAt+1])
	queryVec, err := q.eng.Searcher.Embedder.EmbedCtx(q.ctx, queryText)
	if err != nil {
		queryVec = nil
	}
	click := rerank.Click{
		Query:        queryText,
		QueryVec:     queryVec,
		Clicked:      inputs[clickedAt],
		SkippedAbove: inputs[:clickedAt],
	}
	rr.Recalibrate(click)
	st := rr.Stats()
	writeJSON(w, sessionFeedbackResponse{Applied: true, Version: st.Version, Clicks: st.Clicks})
}

// clickInputs resolves cited turn documents into the reranker's feature
// inputs, re-reading the live chunks for their text and embeddings (the
// unit-length arena views the store hands out, as the ask scored). A chunk
// deleted since the turn (or on a shard that cannot be reached right now)
// degrades to the title recorded at answer time.
func clickInputs(q *query, cited []session.TurnDoc) []rerank.Input {
	ids := make([]string, len(cited))
	for i, d := range cited {
		ids[i] = d.ChunkID
	}
	docs, _ := q.eng.Index.DocsByID(q.ctx, ids)
	inputs := make([]rerank.Input, len(cited))
	for i, d := range cited {
		inputs[i] = rerank.Input{Title: d.Title}
		if doc := docs[i]; doc.ID != "" {
			inputs[i].Title = doc.Fields["title"]
			inputs[i].Content = doc.Fields["content"]
			inputs[i].ContentVector = doc.Vectors["contentVector"]
		}
	}
	return inputs
}

// mustJSON marshals a payload that cannot fail (plain structs, no cycles).
func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return `{"error":"encode failed"}`
	}
	return string(b)
}
