package server

// End-to-end tests for the tracing subsystem: a sharded engine with
// injected upstream faults answers /api/ask, and the stored trace fetched
// through /api/traces/{id} must show the whole story — per-shard fan-out
// spans, retry events from the resilience layer, and the degraded status
// the shed vector legs caused.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/embedding"
	"uniask/internal/faulty"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/resilience"
)

// buildTracedServer assembles a 2-shard engine with fault-injected LLM and
// query embedder and a deterministic tracer.
func buildTracedServer(t *testing.T, llmSched, embSched *faulty.Schedule, cfg core.Config) (*httptest.Server, *Server) {
	t.Helper()
	c := kb.Generate(kb.GenConfig{Docs: 30, Seed: 5})
	cfg.ShardCount = 2
	cfg.Trace.Seed = 42
	if llmSched != nil {
		cfg.LLMMiddleware = func(inner llm.Client) llm.Client {
			return &faulty.Client{Inner: inner, Sched: llmSched}
		}
	}
	if embSched != nil {
		inner := cfg.EmbedderMiddleware
		cfg.EmbedderMiddleware = func(e embedding.CtxEmbedder) embedding.CtxEmbedder {
			if inner != nil {
				e = inner(e)
			}
			return &faulty.Embedder{Inner: e, Sched: embSched}
		}
	}
	engine, err := core.BuildFromCorpus(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	api := New(engine)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv, api
}

// attrJSON mirrors the trace.Attr wire form.
type attrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// nodeJSON mirrors one trace.Node in the /api/traces/{id} tree.
type nodeJSON struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Attrs  []attrJSON
	Events []struct {
		Name  string `json:"name"`
		Attrs []attrJSON
	} `json:"events"`
	Children []nodeJSON `json:"children"`
}

type traceDetailJSON struct {
	TraceID  string     `json:"traceId"`
	Name     string     `json:"name"`
	Status   string     `json:"status"`
	Retained string     `json:"retained"`
	Spans    int        `json:"spans"`
	Tree     []nodeJSON `json:"tree"`
}

func flatten(nodes []nodeJSON) []nodeJSON {
	var out []nodeJSON
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flatten(n.Children)...)
	}
	return out
}

// getTrace fetches one trace, retrying briefly: the handler's deferred
// Request.End may still be running when the client already has the ask
// response.
func getTrace(t *testing.T, base, id string) (traceDetailJSON, bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(base + "/api/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var out traceDetailJSON
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return out, true
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			return traceDetailJSON{}, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAskTraceShowsFanOutRetriesAndDegradation(t *testing.T) {
	// First LLM call fails once (retried to success); the first query-time
	// embedding exhausts its 2-attempt budget, shedding the vector legs and
	// degrading the answer.
	srv, _ := buildTracedServer(t,
		faulty.Script(faulty.Error),
		faulty.Script(faulty.Error, faulty.Error),
		core.Config{Resilience: core.ResilienceConfig{
			LLMPolicy:   resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
			EmbedPolicy: resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		}})
	token := login(t, srv.URL, "trace.user")

	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come posso bloccare la carta di credito?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d, want 200", resp.StatusCode)
	}
	headerID := resp.Header.Get(TraceIDHeader)
	if headerID == "" {
		t.Fatal("response missing " + TraceIDHeader)
	}
	var ask askResponse
	if err := json.NewDecoder(resp.Body).Decode(&ask); err != nil {
		t.Fatal(err)
	}
	if ask.TraceID != headerID {
		t.Fatalf("body traceId %q != header %q", ask.TraceID, headerID)
	}
	if !ask.Degraded {
		t.Fatalf("answer not degraded despite exhausted embedding budget: %+v", ask.DegradedParts)
	}

	td, ok := getTrace(t, srv.URL, headerID)
	if !ok {
		t.Fatalf("trace %s not retrievable", headerID)
	}
	if td.Name != "ask" || td.Status != "degraded" || td.Retained != "degraded" {
		t.Fatalf("trace summary = %+v, want ask/degraded/degraded", td)
	}
	if len(td.Tree) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(td.Tree))
	}
	spans := flatten(td.Tree)
	if td.Spans != len(spans) {
		t.Fatalf("span count %d != flattened tree size %d", td.Spans, len(spans))
	}

	// Per-shard fan-out: the 2-shard text leg must leave shard.search spans
	// for both shards.
	shardsSeen := map[string]bool{}
	var retryEvents, degradedSpans int
	var sawLLM, sawEmbed bool
	for _, sp := range spans {
		if sp.Name == "shard.search" {
			for _, a := range sp.Attrs {
				if a.Key == "shard" {
					shardsSeen[a.Value] = true
				}
			}
		}
		if sp.Name == "llm.complete" {
			sawLLM = true
		}
		if sp.Name == "embedding.embed" {
			sawEmbed = true
		}
		if sp.Status == "degraded" {
			degradedSpans++
		}
		for _, ev := range sp.Events {
			if ev.Name == "retry" {
				retryEvents++
			}
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("shard.search spans cover shards %v, want both of 2", shardsSeen)
	}
	if !sawLLM || !sawEmbed {
		t.Fatalf("missing leaf spans: llm=%v embed=%v", sawLLM, sawEmbed)
	}
	// One LLM retry + two failed embedding attempts.
	if retryEvents < 3 {
		t.Fatalf("saw %d retry events, want >= 3", retryEvents)
	}
	if degradedSpans == 0 {
		t.Fatal("no degraded spans despite shed vector legs")
	}

	// The listing endpoints see the same trace through every filter.
	for _, query := range []string{
		"status=degraded",
		"stage=retrieval",
		"shard=0",
		"q=" + url.QueryEscape("name=llm.complete"),
		"q=" + url.QueryEscape("shard>=0 leg=text"),
	} {
		var list []struct {
			TraceID string `json:"traceId"`
		}
		resp := mustGetJSON(t, srv.URL+"/api/traces?"+query, &list)
		if resp != http.StatusOK {
			t.Fatalf("GET /api/traces?%s = %d", query, resp)
		}
		found := false
		for _, row := range list {
			found = found || row.TraceID == headerID
		}
		if !found {
			t.Fatalf("filter %q does not return trace %s", query, headerID)
		}
	}
	// And a filter that cannot match excludes it.
	var empty []struct{}
	if code := mustGetJSON(t, srv.URL+"/api/traces?q="+url.QueryEscape("name=no.such.span"), &empty); code != http.StatusOK || len(empty) != 0 {
		t.Fatalf("impossible filter: code %d, %d rows", code, len(empty))
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	srv, _ := setup(t)
	resp, err := http.Get(srv.URL + "/api/traces/does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status = %d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{
		"q=" + url.QueryEscape("name>retrieval"),
		"min_duration=fast",
		"status=bogus",
		"limit=-3",
		"limit=x",
	} {
		resp, err := http.Get(srv.URL + "/api/traces?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /api/traces?%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestErrorResponseCarriesTraceID(t *testing.T) {
	// Every LLM call hangs; with a short request deadline the ask fails 503
	// and both the header and the error body must carry the trace id — and
	// that error trace must be tail-retained and fetchable.
	sched := faulty.NewSchedule(1, 0, 0, 1.0, 0)
	srv, api := buildTracedServer(t, sched, nil,
		core.Config{Resilience: core.ResilienceConfig{LLMPolicy: resilience.Policy{MaxAttempts: -1}}})
	api.RequestTimeout = 150 * time.Millisecond
	token := login(t, srv.URL, "trace.err")

	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hanging LLM: status = %d, want 503", resp.StatusCode)
	}
	headerID := resp.Header.Get(TraceIDHeader)
	var body struct {
		Error   string `json:"error"`
		TraceID string `json:"traceId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID == "" || body.TraceID != headerID {
		t.Fatalf("error body traceId %q, header %q — must match and be set", body.TraceID, headerID)
	}
	td, ok := getTrace(t, srv.URL, headerID)
	if !ok {
		t.Fatalf("error trace %s not retained", headerID)
	}
	if td.Status != "error" || td.Retained != "error" {
		t.Fatalf("error trace stored as %s/%s, want error/error", td.Status, td.Retained)
	}
}

func TestSampledOutRequestStillGetsID(t *testing.T) {
	var sampledOut core.Config
	sampledOut.Trace.SampleRate = -1
	srv, _ := buildTracedServer(t, nil, nil, sampledOut)
	token := login(t, srv.URL, "trace.off")
	resp := authedReq(t, http.MethodPost, srv.URL+"/api/ask", token, map[string]string{"question": "Come blocco la carta?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d", resp.StatusCode)
	}
	id := resp.Header.Get(TraceIDHeader)
	if id == "" {
		t.Fatal("sampled-out request must still return a trace id header")
	}
	// ...but no spans were recorded, so the store has nothing to serve.
	tresp, err := http.Get(srv.URL + "/api/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsampled trace fetch = %d, want 404", tresp.StatusCode)
	}
}

// mustGetJSON GETs a URL and decodes the JSON body into out.
func mustGetJSON(t *testing.T, u string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}
