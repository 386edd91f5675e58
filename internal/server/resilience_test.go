package server

// Tests for the server-side resilience surface: per-request deadlines that
// turn a hung LLM into a fast 503, the /api/health readiness probe
// reflecting circuit-breaker state, and degraded-answer flags in the ask
// response.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/faulty"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/resilience"
)

// buildFaultyServer assembles a small engine whose LLM is wrapped in the
// fault injector, plus a server with the given request timeout.
func buildFaultyServer(t *testing.T, sched *faulty.Schedule, timeout time.Duration, res core.ResilienceConfig) (*httptest.Server, *Server) {
	t.Helper()
	c := kb.Generate(kb.GenConfig{Docs: 30, Seed: 5})
	engine, err := core.BuildFromCorpus(context.Background(), c, core.Config{
		Resilience: res,
		LLMMiddleware: func(inner llm.Client) llm.Client {
			return &faulty.Client{Inner: inner, Sched: sched}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	api := New(engine)
	api.RequestTimeout = timeout
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv, api
}

func TestHangingLLMReturns503(t *testing.T) {
	// Every LLM call hangs until its context is cancelled. With a short
	// request deadline the server must answer 503, not wedge the handler.
	// Retries are disabled so the one hanging attempt consumes the deadline.
	srv, _ := buildFaultyServer(t, faulty.NewSchedule(1, 0, 0, 1.0, 0), 150*time.Millisecond,
		core.ResilienceConfig{LLMPolicy: resilience.Policy{MaxAttempts: -1}})
	token := login(t, srv.URL, "chaos-user")

	start := time.Now()
	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hanging LLM: status = %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("503 took %v — the deadline did not bound the request", elapsed)
	}
}

func TestHealthReflectsBreakerState(t *testing.T) {
	// All LLM calls fail; a tight breaker opens within one request's retry
	// budget, flipping /api/health from 200 to 503.
	srv, api := buildFaultyServer(t, faulty.NewSchedule(1, 1.0, 0, 0, 0), time.Second,
		core.ResilienceConfig{
			LLMPolicy:  resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
			LLMBreaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		})

	hr := getHealth(t, srv.URL)
	if hr.code != http.StatusOK || hr.body.Status != "ok" {
		t.Fatalf("healthy system: /api/health = %d %+v", hr.code, hr.body)
	}

	token := login(t, srv.URL, "chaos-user")
	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta?"})
	resp.Body.Close()

	if st := defaultEngine(t, api).LLMBreaker.State(); st != resilience.Open {
		t.Fatalf("LLM breaker state = %v, want Open", st)
	}
	hr = getHealth(t, srv.URL)
	if hr.code != http.StatusServiceUnavailable || hr.body.Status != "degraded" {
		t.Fatalf("open breaker: /api/health = %d %+v", hr.code, hr.body)
	}
	found := false
	for _, b := range hr.body.Breakers {
		if b.Name == "llm" && b.State == "open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("health breakers missing open llm entry: %+v", hr.body.Breakers)
	}
}

func TestOpenBreakerServesExtractiveFallback(t *testing.T) {
	// With the LLM breaker already open, /api/ask still answers 200: the
	// generation stage degrades to the extractive fallback and the response
	// is flagged degraded.
	srv, api := buildFaultyServer(t, faulty.NewSchedule(1, 1.0, 0, 0, 0), time.Second,
		core.ResilienceConfig{
			LLMPolicy:  resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
			LLMBreaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		})
	token := login(t, srv.URL, "chaos-user")

	// First request trips the breaker (its generation fallback may already
	// fire once the retry budget is exhausted).
	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta?"})
	resp.Body.Close()
	if st := defaultEngine(t, api).LLMBreaker.State(); st != resilience.Open {
		t.Fatalf("breaker state = %v, want Open", st)
	}

	resp = authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta di credito?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open breaker ask: status = %d, want 200 (degraded answer)", resp.StatusCode)
	}
	var out askResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("answer not flagged degraded: %+v", out)
	}
	hasGen := false
	for _, p := range out.DegradedParts {
		if p == "generation" {
			hasGen = true
		}
	}
	if !hasGen {
		t.Fatalf("degraded parts = %v, want generation", out.DegradedParts)
	}
	if out.Answer == "" {
		t.Fatal("degraded answer is empty")
	}
	// The dashboard degradation gauge saw it.
	snap := mustSnapshot(t, srv.URL)
	if snap.DegradedQueries == 0 {
		t.Fatalf("dashboard DegradedQueries = 0 after degraded answers")
	}
	if snap.Breakers["llm"] != "open" {
		t.Fatalf("dashboard breaker gauge = %+v, want llm open", snap.Breakers)
	}
}

type healthResult struct {
	code int
	body healthResponse
}

func getHealth(t *testing.T, base string) healthResult {
	t.Helper()
	resp, err := http.Get(base + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return healthResult{code: resp.StatusCode, body: body}
}

type dashboardSnapshot struct {
	DegradedQueries int               `json:"DegradedQueries"`
	Breakers        map[string]string `json:"Breakers"`
}

func mustSnapshot(t *testing.T, base string) dashboardSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/api/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap dashboardSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}
