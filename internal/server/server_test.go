package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uniask/internal/core"
	"uniask/internal/kb"
	"uniask/internal/monitor"
	"uniask/internal/pipeline"
	"uniask/internal/tenant"
)

var (
	testSrv *httptest.Server
	testAPI *Server
	corpus  *kb.Corpus
)

func setup(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	if testSrv == nil {
		corpus = kb.Generate(kb.GenConfig{Docs: 150, Seed: 21})
		engine, err := core.BuildFromCorpus(context.Background(), corpus, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		testAPI = New(engine)
		testSrv = httptest.NewServer(testAPI.Handler())
	}
	return testSrv, testAPI
}

// defaultEngine is the engine a one-tenant server serves.
func defaultEngine(t testing.TB, api *Server) *core.Engine {
	t.Helper()
	eng, err := api.Tenants.Engine(tenant.Default)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func login(t testing.TB, base, user string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": user})
	resp, err := http.Post(base+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status = %d", resp.StatusCode)
	}
	var out struct {
		Token string `json:"token"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if out.Token == "" {
		t.Fatal("empty token")
	}
	return out.Token
}

func authedReq(t *testing.T, method, url, token string, payload interface{}) *http.Response {
	t.Helper()
	var body *bytes.Reader
	if payload != nil {
		b, _ := json.Marshal(payload)
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	req, _ := http.NewRequest(method, url, body)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	srv, _ := setup(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestLoginRequired(t *testing.T) {
	srv, _ := setup(t)
	resp, _ := http.Get(srv.URL + "/api/search?q=carta")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated search status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestLoginRejectsEmptyUser(t *testing.T) {
	srv, _ := setup(t)
	resp, _ := http.Post(srv.URL+"/api/login", "application/json", strings.NewReader(`{"user":""}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestAskEndpoint(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "mario.rossi")
	d := corpus.Docs[0]
	resp := authedReq(t, "POST", srv.URL+"/api/ask", token, map[string]string{"question": d.Title + "?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d", resp.StatusCode)
	}
	var out struct {
		Answer    string `json:"answer"`
		Guardrail string `json:"guardrail"`
		Documents []struct {
			ID, Parent, Title, Snippet string
			Score                      float64
		} `json:"documents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Answer == "" || len(out.Documents) == 0 {
		t.Fatalf("ask response incomplete: %+v", out)
	}
	if out.Documents[0].Parent == "" || out.Documents[0].Title == "" {
		t.Fatalf("document fields missing: %+v", out.Documents[0])
	}
}

func TestAskValidation(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "u1")
	resp := authedReq(t, "POST", srv.URL+"/api/ask", token, map[string]string{"question": " "})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blank question status = %d", resp.StatusCode)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "u2")
	resp := authedReq(t, "GET", srv.URL+"/api/search?q="+strings.ReplaceAll(corpus.Docs[1].Title, " ", "+"), token, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	var out []struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if len(out) == 0 {
		t.Fatal("no search results")
	}
}

func TestFeedbackFlow(t *testing.T) {
	srv, api := setup(t)
	token := login(t, srv.URL, "feedback.user")
	before := api.Metrics.Snapshot()
	resp := authedReq(t, "POST", srv.URL+"/api/feedback", token, Feedback{
		Query: "come bloccare la carta", Helpful: true, RelevantDocs: true,
		Rating: 4, Links: []string{"kb00001"}, Comments: "ottimo",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	if d := api.Metrics.Snapshot(); d.Feedbacks != before.Feedbacks+1 || d.PositiveFeedbacks != before.PositiveFeedbacks+1 {
		t.Fatalf("feedback counters = %d/%d positive, want %d/%d",
			d.Feedbacks, d.PositiveFeedbacks, before.Feedbacks+1, before.PositiveFeedbacks+1)
	}
}

func TestFeedbackValidation(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "u3")
	resp := authedReq(t, "POST", srv.URL+"/api/feedback", token, Feedback{Rating: 9})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid rating status = %d", resp.StatusCode)
	}
}

func TestDashboardReflectsTraffic(t *testing.T) {
	srv, api := setup(t)
	token := login(t, srv.URL, "dash.user")
	before := api.Metrics.Snapshot()
	resp := authedReq(t, "POST", srv.URL+"/api/ask", token, map[string]string{"question": corpus.Docs[2].Title + "?"})
	resp.Body.Close()
	resp = authedReq(t, "POST", srv.URL+"/api/feedback", token, Feedback{Query: "x", Rating: 5})
	resp.Body.Close()
	resp = authedReq(t, "GET", srv.URL+"/api/dashboard", token, nil)
	defer resp.Body.Close()
	var d monitor.Dashboard
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Queries != before.Queries+1 || d.Users == 0 {
		t.Fatalf("dashboard queries = %d (was %d), users = %d", d.Queries, before.Queries, d.Users)
	}
	if d.Feedbacks != before.Feedbacks+1 || d.PositiveFeedbacks != before.PositiveFeedbacks+1 {
		t.Fatalf("dashboard feedbacks = %d/%d positive, want %d/%d",
			d.Feedbacks, d.PositiveFeedbacks, before.Feedbacks+1, before.PositiveFeedbacks+1)
	}
	// The store's write-amplification counters reach the segment row.
	if len(d.Segments) == 0 || d.Segments[0].ChunksSealed == 0 {
		t.Fatalf("segment gauges lack the sealed-chunk counter: %+v", d.Segments)
	}
}

// TestDashboardRecordsPipelineStages checks the acceptance criterion that
// an end-to-end Ask through the server records per-stage latency for every
// Figure-1 stage in the monitoring dashboard.
func TestDashboardRecordsPipelineStages(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "stage.user")
	resp := authedReq(t, "POST", srv.URL+"/api/ask", token, map[string]string{"question": corpus.Docs[3].Title + "?"})
	resp.Body.Close()
	resp = authedReq(t, "GET", srv.URL+"/api/dashboard", token, nil)
	defer resp.Body.Close()
	var d monitor.Dashboard
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range d.Stages {
		counts[s.Stage] = s.Count
	}
	for _, stage := range []string{
		pipeline.StageFilter, pipeline.StageRetrieval, pipeline.StageFusion,
		pipeline.StageRerank, pipeline.StageGeneration, pipeline.StageGuardrails,
	} {
		if counts[stage] == 0 {
			t.Errorf("stage %q not recorded in dashboard: %+v", stage, d.Stages)
		}
	}
}

// TestOversizedFeedbackIs413: a feedback whose declared length is over the
// body cap is refused before its handler runs, so nothing is counted.
func TestOversizedFeedbackIs413(t *testing.T) {
	srv, api := setup(t)
	token := login(t, srv.URL, "big.feedback")
	before := api.Metrics.Snapshot().Feedbacks
	body, _ := json.Marshal(Feedback{Query: "conto", Rating: 4, Comments: strings.Repeat("x", 2*maxBodyBytes)})
	req := httptest.NewRequest(http.MethodPost, "/api/feedback", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized feedback status = %d, want 413", rec.Code)
	}
	if got := api.Metrics.Snapshot().Feedbacks; got != before {
		t.Fatalf("oversized feedback counted: %d feedbacks, want %d", got, before)
	}
}

// TestOversizedChunkedAskIs400: a chunked body declares no length, so the
// cap cuts it off mid-read; the ask handler's decode fails and it answers
// its own 400 without running or counting a query.
func TestOversizedChunkedAskIs400(t *testing.T) {
	srv, api := setup(t)
	token := login(t, srv.URL, "big.ask")
	before := api.Metrics.Snapshot().Queries
	body := io.MultiReader(strings.NewReader(`{"question":"`),
		strings.NewReader(strings.Repeat("a", 2*maxBodyBytes)), strings.NewReader(`"}`))
	req := httptest.NewRequest(http.MethodPost, "/api/ask", body)
	if req.ContentLength != -1 {
		t.Fatalf("request declares ContentLength %d, want a chunked (unknown-length) body", req.ContentLength)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized chunked ask status = %d, want 400", rec.Code)
	}
	if got := api.Metrics.Snapshot().Queries; got != before {
		t.Fatalf("oversized ask counted: %d queries, want %d", got, before)
	}
}

func TestFeedbackPositiveBoundary(t *testing.T) {
	cases := map[int]bool{1: false, 2: false, 3: true, 4: true, 5: true}
	for rating, want := range cases {
		f := Feedback{Rating: rating}
		if f.Positive() != want {
			t.Errorf("rating %d positive = %v", rating, f.Positive())
		}
	}
}

func TestSnippet(t *testing.T) {
	if got := snippet("breve", 100); got != "breve" {
		t.Fatalf("snippet = %q", got)
	}
	long := strings.Repeat("parola ", 50)
	got := snippet(long, 40)
	if len(got) > 45 || !strings.HasSuffix(got, "…") {
		t.Fatalf("snippet = %q", got)
	}
}

func TestConcurrentAsk(t *testing.T) {
	srv, _ := setup(t)
	token := login(t, srv.URL, "par.user")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			q := fmt.Sprintf("%s variante %d?", corpus.Docs[i%10].Title, i)
			resp := authedReq(t, "POST", srv.URL+"/api/ask", token, map[string]string{"question": q})
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrontendPage(t *testing.T) {
	srv, _ := setup(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	for _, want := range []string{"UniAsk", "/api/ask", "/api/feedback", "feedback"} {
		if !strings.Contains(page, want) {
			t.Errorf("frontend missing %q", want)
		}
	}
	// Unknown paths 404.
	resp2, _ := http.Get(srv.URL + "/nope")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", resp2.StatusCode)
	}
}

// TestPprofEndpoints verifies the profiling routes are wired into the mux
// (the server does not use http.DefaultServeMux, so they must be explicit).
func TestPprofEndpoints(t *testing.T) {
	srv, _ := setup(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
