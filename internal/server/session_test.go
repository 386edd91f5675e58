package server

// Conversational-session API tests: SSE event ordering on the wire, session
// persistence across turns, the per-turn trace trees sharing the session
// attribute, the click-feedback recalibration loop, and the steady-state
// benchmarks (allocations per turn, time to first citation) that feed
// BENCH_query.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/embedding"
	"uniask/internal/faulty"
	"uniask/internal/kb"
	"uniask/internal/resilience"
	"uniask/internal/sse"
	"uniask/internal/vector"
)

// createSession opens a conversation and returns its ID.
func createSession(t testing.TB, base, token string) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, base+"/api/sessions", bytes.NewReader([]byte("{}")))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: status %d: %s", resp.StatusCode, msg)
	}
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if out.ID == "" {
		t.Fatal("create session: empty id")
	}
	return out.ID
}

// askStream drives one SSE turn and returns the parsed events in order.
func askStream(t testing.TB, base, token, sid, question string) []sse.Event {
	t.Helper()
	events, status := askStreamStatus(t, base, token, sid, question)
	if status != http.StatusOK {
		t.Fatalf("ask stream: status %d", status)
	}
	return events
}

func askStreamStatus(t testing.TB, base, token, sid, question string) ([]sse.Event, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"question": question})
	req, _ := http.NewRequest(http.MethodPost, base+"/api/sessions/"+sid+"/ask", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("ask stream: Content-Type = %q", ct)
	}
	var (
		p      sse.Parser
		events []sse.Event
		buf    = make([]byte, 4096)
	)
	for {
		n, readErr := resp.Body.Read(buf)
		if n > 0 {
			evs, err := p.Feed(buf[:n])
			if err != nil {
				t.Fatalf("ask stream: parse: %v", err)
			}
			events = append(events, evs...)
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			t.Fatalf("ask stream: read: %v", readErr)
		}
	}
	return events, http.StatusOK
}

// eventNames projects the event sequence for ordering assertions.
func eventNames(events []sse.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.Name
	}
	return out
}

func findEvent(events []sse.Event, name string) (sse.Event, bool) {
	for _, e := range events {
		if e.Name == name {
			return e, true
		}
	}
	return sse.Event{}, false
}

type doneEvent struct {
	Answer         string   `json:"answer"`
	AnswerValid    bool     `json:"answerValid"`
	Guardrail      string   `json:"guardrail"`
	RewrittenQuery string   `json:"rewrittenQuery"`
	Degraded       bool     `json:"degraded"`
	DegradedParts  []string `json:"degradedParts"`
	TraceID        string   `json:"traceId"`
	Turn           int      `json:"turn"`
	Error          string   `json:"error"`
}

func parseDone(t testing.TB, events []sse.Event) doneEvent {
	t.Helper()
	ev, ok := findEvent(events, "done")
	if !ok {
		t.Fatalf("no done event; got %v", eventNames(events))
	}
	var d doneEvent
	if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	return d
}

func TestSessionStreamOrdering(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "maria")
	sid := createSession(t, srv.URL, token)

	q := "Come posso " + corpus.Docs[0].Title + "?"
	events := askStream(t, srv.URL, token, sid, q)

	// The wire contract: citations strictly before any token, done terminal.
	names := eventNames(events)
	citAt, tokAt, doneAt := -1, -1, -1
	for i, n := range names {
		switch n {
		case "citations":
			if citAt == -1 {
				citAt = i
			}
		case "token":
			if tokAt == -1 {
				tokAt = i
			}
		case "done":
			doneAt = i
		}
	}
	if citAt == -1 || doneAt == -1 {
		t.Fatalf("missing citations or done: %v", names)
	}
	if tokAt != -1 && tokAt < citAt {
		t.Fatalf("token before citations: %v", names)
	}
	if doneAt != len(names)-1 {
		t.Fatalf("done is not terminal: %v", names)
	}

	var cits struct {
		Documents []struct {
			ID string `json:"id"`
		} `json:"documents"`
	}
	if err := json.Unmarshal([]byte(events[citAt].Data), &cits); err != nil || len(cits.Documents) == 0 {
		t.Fatalf("citations payload: err=%v docs=%d", err, len(cits.Documents))
	}

	d := parseDone(t, events)
	if d.Error != "" || d.Answer == "" {
		t.Fatalf("done: error=%q answer=%q", d.Error, d.Answer)
	}
	if d.Turn != 0 {
		t.Fatalf("first turn index = %d", d.Turn)
	}

	// When the answer is valid, the streamed tokens must concatenate to the
	// raw generated answer byte-for-byte (pre-guardrail contract).
	if d.AnswerValid {
		var streamed bytes.Buffer
		for _, e := range events {
			if e.Name != "token" {
				continue
			}
			var tok struct {
				Text string `json:"text"`
			}
			if err := json.Unmarshal([]byte(e.Data), &tok); err != nil {
				t.Fatal(err)
			}
			streamed.WriteString(tok.Text)
		}
		if streamed.Len() > 0 && streamed.String() != d.Answer {
			t.Fatalf("streamed tokens != answer:\n%q\n%q", streamed.String(), d.Answer)
		}
	}
}

func TestSessionMultiTurnHistory(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "maria")
	sid := createSession(t, srv.URL, token)

	q1 := "Come posso " + corpus.Docs[0].Title + "?"
	d1 := parseDone(t, askStream(t, srv.URL, token, sid, q1))
	if d1.Turn != 0 {
		t.Fatalf("turn 1 index = %d", d1.Turn)
	}
	// An elliptical follow-up: the rewrite stage has history to resolve it
	// against (whether the simulator rewrites it depends on the question's
	// term count — the turn must complete either way).
	d2 := parseDone(t, askStream(t, srv.URL, token, sid, "E i costi?"))
	if d2.Turn != 1 {
		t.Fatalf("turn 2 index = %d", d2.Turn)
	}

	// The transcript endpoint shows both turns in order.
	resp := authedReq(t, http.MethodGet, srv.URL+"/api/sessions/"+sid, token, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: status %d", resp.StatusCode)
	}
	var sess struct {
		Turns []struct {
			Question string `json:"question"`
			Answer   string `json:"answer"`
			TraceID  string `json:"traceId"`
		} `json:"turns"`
	}
	json.NewDecoder(resp.Body).Decode(&sess)
	if len(sess.Turns) != 2 {
		t.Fatalf("transcript has %d turns, want 2", len(sess.Turns))
	}
	if sess.Turns[0].Question != q1 || sess.Turns[1].Question != "E i costi?" {
		t.Fatalf("transcript questions: %q, %q", sess.Turns[0].Question, sess.Turns[1].Question)
	}
	for i, turn := range sess.Turns {
		if turn.Answer == "" {
			t.Fatalf("turn %d has no answer", i)
		}
	}
}

// TestSessionTraceTree: every turn produces one span tree, all carrying the
// session attribute, and /api/traces?session= lists exactly that
// conversation in order.
func TestSessionTraceTree(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "tracer")
	sid := createSession(t, srv.URL, token)

	questions := []string{
		"Come posso " + corpus.Docs[1].Title + "?",
		"Quali documenti servono?",
		"E per conto di terzi?",
	}
	traceIDs := make([]string, len(questions))
	for i, q := range questions {
		d := parseDone(t, askStream(t, srv.URL, token, sid, q))
		if d.TraceID == "" {
			t.Fatalf("turn %d: no trace id", i)
		}
		traceIDs[i] = d.TraceID
	}

	// The session filter returns exactly this conversation's turns.
	resp := authedReq(t, http.MethodGet, srv.URL+"/api/traces?session="+sid, token, nil)
	defer resp.Body.Close()
	var list []struct {
		TraceID string `json:"traceId"`
		Name    string `json:"name"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	if len(list) != len(questions) {
		t.Fatalf("traces?session= returned %d rows, want %d", len(list), len(questions))
	}
	listed := map[string]bool{}
	for _, row := range list {
		if row.Name != "session.turn" {
			t.Fatalf("trace %s has name %q", row.TraceID, row.Name)
		}
		listed[row.TraceID] = true
	}
	for i, id := range traceIDs {
		if !listed[id] {
			t.Fatalf("turn %d trace %s missing from session listing", i, id)
		}
	}

	// Each turn's span tree carries session and turn attributes on the root
	// and real pipeline spans beneath it.
	for i, id := range traceIDs {
		resp := authedReq(t, http.MethodGet, srv.URL+"/api/traces/"+id, token, nil)
		var detail struct {
			Spans int `json:"spans"`
			Tree  []struct {
				Attrs []struct {
					Key   string `json:"key"`
					Value string `json:"value"`
				} `json:"attrs"`
			} `json:"tree"`
		}
		json.NewDecoder(resp.Body).Decode(&detail)
		resp.Body.Close()
		if detail.Spans < 2 {
			t.Fatalf("turn %d trace has only %d spans", i, detail.Spans)
		}
		attrs := map[string]string{}
		for _, root := range detail.Tree {
			for _, a := range root.Attrs {
				attrs[a.Key] = a.Value
			}
		}
		if attrs["session"] != sid {
			t.Fatalf("turn %d root session attr = %q, want %q", i, attrs["session"], sid)
		}
		if attrs["turn"] != strconv.Itoa(i) {
			t.Fatalf("turn %d root turn attr = %q", i, attrs["turn"])
		}
	}
}

func TestSessionFeedbackRecalibrates(t *testing.T) {
	srv, api := setup(t)
	token := login(t, srv.URL, "clicker")
	sid := createSession(t, srv.URL, token)

	events := askStream(t, srv.URL, token, sid, "Come posso "+corpus.Docs[2].Title+"?")
	cit, ok := findEvent(events, "citations")
	if !ok {
		t.Fatal("no citations event")
	}
	var cits struct {
		Documents []struct {
			ID string `json:"id"`
		} `json:"documents"`
	}
	json.NewDecoder(bytes.NewReader([]byte(cit.Data))).Decode(&cits)
	if len(cits.Documents) < 2 {
		t.Fatalf("want >= 2 citations, got %d", len(cits.Documents))
	}

	before := defaultEngine(t, api).Searcher.Reranker.Stats()
	// Click the second-ranked document: the first becomes a negative
	// example, the clicked one positive.
	resp := authedReq(t, http.MethodPost, srv.URL+"/api/sessions/"+sid+"/feedback", token,
		map[string]interface{}{"turn": 0, "chunkId": cits.Documents[1].ID})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("feedback: status %d: %s", resp.StatusCode, msg)
	}
	var out struct {
		Applied bool   `json:"applied"`
		Version uint64 `json:"version"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if !out.Applied {
		t.Fatal("feedback not applied")
	}
	after := defaultEngine(t, api).Searcher.Reranker.Stats()
	if after.Version != before.Version+1 || after.Clicks != before.Clicks+1 {
		t.Fatalf("stats before=%+v after=%+v", before, after)
	}
	if out.Version != after.Version {
		t.Fatalf("response version %d != reranker version %d", out.Version, after.Version)
	}

	// Clicking an uncited chunk is a client error, not a weight update.
	resp2 := authedReq(t, http.MethodPost, srv.URL+"/api/sessions/"+sid+"/feedback", token,
		map[string]interface{}{"turn": 0, "chunkId": "not-a-cited-chunk"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("uncited click: status %d, want 400", resp2.StatusCode)
	}
}

// TestSessionFeedbackEmbedsLikeAQuery: a click embeds its query with the
// embedder queries use — middleware, retry budget and breaker included —
// under the request's deadline. A failing embed is shed (semantic feature 0),
// the click still lands; a hanging one is cut by RequestTimeout.
func TestSessionFeedbackEmbedsLikeAQuery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched *faulty.Schedule
	}{
		{"embed fails", faulty.NewSchedule(1, 1.0, 0, 0, 0)},
		{"embed hangs", faulty.NewSchedule(1, 0, 0, 1.0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var broken atomic.Bool
			srv, api := buildTracedServer(t, nil, nil, core.Config{
				Resilience: core.ResilienceConfig{
					EmbedPolicy: resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
				},
				EmbedderMiddleware: func(e embedding.CtxEmbedder) embedding.CtxEmbedder {
					return switchEmbedder{CtxEmbedder: e, broken: &faulty.Embedder{Inner: e, Sched: tc.sched}, on: &broken}
				},
			})
			api.RequestTimeout = 300 * time.Millisecond
			token := login(t, srv.URL, "clicker")
			sid, chunkID, _ := conversation(t, srv.URL, token)

			broken.Store(true)
			before := defaultEngine(t, api).Searcher.Reranker.Stats()
			start := time.Now()
			resp := authedReq(t, http.MethodPost, srv.URL+"/api/sessions/"+sid+"/feedback", token,
				map[string]interface{}{"turn": 0, "chunkId": chunkID})
			defer resp.Body.Close()
			var out sessionFeedbackResponse
			json.NewDecoder(resp.Body).Decode(&out)
			if elapsed := time.Since(start); resp.StatusCode != http.StatusOK || !out.Applied || elapsed > 5*time.Second {
				t.Fatalf("click with a broken embedder: status %d, %+v after %v — want 200 applied within the request deadline", resp.StatusCode, out, elapsed)
			}
			if tc.sched.Calls() == 0 {
				t.Fatal("the click never reached the embedder middleware: it embedded with the raw embedder")
			}
			if after := defaultEngine(t, api).Searcher.Reranker.Stats(); after.Clicks != before.Clicks+1 {
				t.Fatalf("clicks %d → %d, want the click counted", before.Clicks, after.Clicks)
			}
		})
	}
}

// switchEmbedder is an embedder middleware that answers through broken once
// on is set, so a test can serve a healthy turn and then fail the click.
type switchEmbedder struct {
	embedding.CtxEmbedder
	broken embedding.CtxEmbedder
	on     *atomic.Bool
}

func (s switchEmbedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	if s.on.Load() {
		return s.broken.EmbedCtx(ctx, text)
	}
	return s.CtxEmbedder.EmbedCtx(ctx, text)
}

func TestSessionNotFound(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "ghost")
	_, status := askStreamStatus(t, srv.URL, token, "s-nonexistent", "Domanda?")
	if status != http.StatusNotFound {
		t.Fatalf("ask on unknown session: status %d, want 404", status)
	}
	resp := authedReq(t, http.MethodGet, srv.URL+"/api/sessions/s-nonexistent", token, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown session: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionDashboardGauges(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "gauge")
	sid := createSession(t, srv.URL, token)
	parseDone(t, askStream(t, srv.URL, token, sid, "Come posso "+corpus.Docs[3].Title+"?"))

	resp := authedReq(t, http.MethodGet, srv.URL+"/api/dashboard", token, nil)
	defer resp.Body.Close()
	var dash struct {
		HasSessions bool
		Sessions    struct {
			Live          int
			Turns         int
			StreamsOpened uint64
			StreamsClosed uint64
			OpenStreams   int64
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&dash); err != nil {
		t.Fatal(err)
	}
	if !dash.HasSessions {
		t.Fatal("dashboard has no session gauge")
	}
	if dash.Sessions.Live < 1 || dash.Sessions.Turns < 1 {
		t.Fatalf("session gauge: %+v", dash.Sessions)
	}
	if dash.Sessions.StreamsOpened < 1 || dash.Sessions.StreamsOpened != dash.Sessions.StreamsClosed {
		t.Fatalf("stream counters should balance after the turn: %+v", dash.Sessions)
	}
	if dash.Sessions.OpenStreams != 0 {
		t.Fatalf("no stream should remain open: %+v", dash.Sessions)
	}
}

// BenchmarkSessionAsk measures a steady-state conversational turn through
// the full HTTP+SSE surface: rewrite, retrieval, streaming generation,
// transcript append.
func BenchmarkSessionAsk(b *testing.B) {
	srv, _ := benchSetup(b)
	token := login(b, srv.URL, "bench")
	sid := createSession(b, srv.URL, token)
	q := "Come posso " + corpus.Docs[0].Title + "?"
	askStream(b, srv.URL, token, sid, q) // warm: caches, session history
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := askStream(b, srv.URL, token, sid, q)
		if _, ok := findEvent(events, "done"); !ok {
			b.Fatal("no done event")
		}
	}
}

// BenchmarkSSEStream measures time-to-first-citation: how long a client
// waits before it can render the document list, reported as
// time-to-first-citation-ns (the streaming win over the one-shot API).
func BenchmarkSSEStream(b *testing.B) {
	srv, _ := benchSetup(b)
	token := login(b, srv.URL, "bench")
	sid := createSession(b, srv.URL, token)
	q := "Come posso " + corpus.Docs[1].Title + "?"
	askStream(b, srv.URL, token, sid, q)
	var totalFirstCitation time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(map[string]string{"question": q})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/sessions/"+sid+"/ask", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var (
			p             sse.Parser
			buf           = make([]byte, 4096)
			firstCitation time.Duration
		)
		for {
			n, readErr := resp.Body.Read(buf)
			if n > 0 {
				evs, _ := p.Feed(buf[:n])
				for _, ev := range evs {
					if ev.Name == "citations" && firstCitation == 0 {
						firstCitation = time.Since(start)
					}
				}
			}
			if readErr != nil {
				break
			}
		}
		resp.Body.Close()
		if firstCitation == 0 {
			b.Fatal("no citations event")
		}
		totalFirstCitation += firstCitation
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalFirstCitation.Nanoseconds())/float64(b.N), "time-to-first-citation-ns")
	}
}

// benchSetup is setup(t) for benchmarks: builds (or reuses) the shared
// test server.
func benchSetup(b *testing.B) (*httptest.Server, *Server) {
	b.Helper()
	if testSrv == nil {
		corpus = kb.Generate(kb.GenConfig{Docs: 150, Seed: 21})
		engine, err := core.BuildFromCorpus(context.Background(), corpus, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		testAPI = New(engine)
		testSrv = httptest.NewServer(testAPI.Handler())
	}
	return testSrv, testAPI
}
