package server

// Tests for the one route table, the one front door and the one finish
// step: every table row answers bare and under /t/{tenant}, the four query
// endpoints refuse a request with the same bytes at the same step, and a
// degraded search is accounted like a degraded ask.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/faulty"
	"uniask/internal/resilience"
)

// conversation opens a session under base (a server URL, optionally with a
// /t/{tenant} prefix), runs one turn and returns what later requests need:
// the session id, a chunk cited on turn 0 and the turn's trace id.
func conversation(t *testing.T, base, token string) (sid, chunkID, traceID string) {
	t.Helper()
	sid = createSession(t, base, token)
	events := askStream(t, base, token, sid, "Come apro un conto corrente?")
	cit, ok := findEvent(events, "citations")
	if !ok {
		t.Fatal("no citations event")
	}
	var cits struct {
		Documents []struct {
			ID string `json:"id"`
		} `json:"documents"`
	}
	if err := json.Unmarshal([]byte(cit.Data), &cits); err != nil || len(cits.Documents) == 0 {
		t.Fatalf("citations payload %q: %v", cit.Data, err)
	}
	return sid, cits.Documents[0].ID, parseDone(t, events).TraceID
}

// TestRouteTableAnswersBareAndScoped is generated from Server.routes(): on
// a multi-tenant server every row must answer 2xx both bare (tenant in the
// header) and under /t/{tenant}, so a route registered without its alias
// cannot recur.
func TestRouteTableAnswersBareAndScoped(t *testing.T) {
	hs, srv := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	const tenantID = "banca-alfa"
	sid, chunkID, traceID := conversation(t, hs.URL+"/t/"+tenantID, token)
	if _, ok := getTrace(t, hs.URL, traceID); !ok {
		t.Fatalf("trace %s not retrievable", traceID)
	}

	bodies := map[string]string{
		"/api/login":                   `{"user":"mario"}`,
		"/api/ask":                     `{"question":"Come apro un conto corrente?"}`,
		"/api/feedback":                `{"query":"conto","rating":5}`,
		"/api/sessions":                `{}`,
		"/api/sessions/{sid}/ask":      `{"question":"E per un minorenne?"}`,
		"/api/sessions/{sid}/feedback": `{"turn":0,"chunkId":"` + chunkID + `"}`,
	}
	fill := strings.NewReplacer("{sid}", sid, "{id}", traceID)
	for _, rt := range srv.routes() {
		for _, prefix := range []string{"", "/t/" + tenantID} {
			url := hs.URL + prefix + fill.Replace(rt.path)
			if rt.path == "/api/search" {
				url += "?q=conto"
			}
			req, err := http.NewRequest(rt.method, url, strings.NewReader(bodies[rt.path]))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer "+token)
			if prefix == "" {
				req.Header.Set(TenantHeader, tenantID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				t.Errorf("%s %s%s = %d, want 2xx: %s", rt.method, prefix, rt.path, resp.StatusCode, msg)
			}
		}
	}
}

// TestFrontDoorRefusalsAreIdentical drives the four query endpoints through
// every refusal of the front door, in its order — auth, body/param check,
// tenant named, tenant well-formed, tenant known, admission — and requires
// the same status and the same body from all four (the body check's message
// is the endpoint's own).
func TestFrontDoorRefusalsAreIdentical(t *testing.T) {
	hs, _ := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	// banca-batch (2 q/s, burst 2) is the tenant that gets shed; its session
	// needs a turn for the click to refer to.
	sid, chunkID, _ := conversation(t, hs.URL+"/t/banca-batch", token)

	endpoints := []struct {
		name, method, path, body string
		badPath, badBody, badMsg string
	}{
		{name: "ask", method: "POST", path: "/api/ask", body: `{"question":"Come apro un conto?"}`,
			badBody: `{"question":" "}`, badMsg: "question required"},
		{name: "search", method: "GET", path: "/api/search?q=conto",
			badPath: "/api/search?q=", badMsg: "q required"},
		{name: "session ask", method: "POST", path: "/api/sessions/" + sid + "/ask", body: `{"question":"E poi?"}`,
			badBody: `not json`, badMsg: "question required"},
		{name: "session feedback", method: "POST", path: "/api/sessions/" + sid + "/feedback",
			body:    `{"turn":0,"chunkId":"` + chunkID + `"}`,
			badBody: `{"turn":0}`, badMsg: "turn and chunkId required"},
	}
	do := func(method, path, body, token, tenantID string) (int, http.Header, string) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		if tenantID != "" {
			req.Header.Set(TenantHeader, tenantID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(b)
	}
	retryAfterMs := regexp.MustCompile(`"retryAfterMs":\d+`)

	cases := []struct {
		name     string
		status   int
		token    string
		tenantID string
		bad      bool // send the endpoint's malformed input
		shed     bool // repeat until the tenant's bucket is empty
	}{
		{name: "no token", status: http.StatusUnauthorized, tenantID: "banca-alfa"},
		{name: "bad body", status: http.StatusBadRequest, token: token, tenantID: "banca-alfa", bad: true},
		{name: "missing tenant", status: http.StatusBadRequest, token: token},
		{name: "invalid tenant", status: http.StatusBadRequest, token: token, tenantID: "banca alfa!"},
		{name: "unknown tenant", status: http.StatusNotFound, token: token, tenantID: "banca-ignota"},
		{name: "shed", status: http.StatusTooManyRequests, token: token, tenantID: "banca-batch", shed: true},
	}
	for _, tc := range cases {
		var first string
		for _, ep := range endpoints {
			path, body := ep.path, ep.body
			if tc.bad {
				if ep.badPath != "" {
					path = ep.badPath
				}
				body = ep.badBody
			}
			status, hdr, got := do(ep.method, path, body, tc.token, tc.tenantID)
			for i := 0; tc.shed && status != tc.status && i < 10; i++ {
				// Admitted: that spent a token. Ask again until the bucket is dry.
				status, hdr, got = do(ep.method, path, body, tc.token, tc.tenantID)
			}
			if status != tc.status {
				t.Errorf("%s, %s: status %d, want %d (%s)", tc.name, ep.name, status, tc.status, got)
				continue
			}
			if tc.shed {
				if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("shed, %s: Retry-After = %q, want a positive integer of seconds", ep.name, hdr.Get("Retry-After"))
				}
				got = retryAfterMs.ReplaceAllString(got, `"retryAfterMs":N`)
			}
			if tc.bad {
				if want := `{"error":"` + ep.badMsg + `"}` + "\n"; got != want {
					t.Errorf("bad body, %s: body %q, want %q", ep.name, got, want)
				}
				continue
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: %s answered %q, ask answered %q", tc.name, ep.name, got, first)
			}
		}
	}
}

// TestScopedTraceDetail: /t/{tenant}/api/traces/{id} serves the tenant's own
// traces and hides everyone else's; the unscoped route serves any id.
func TestScopedTraceDetail(t *testing.T) {
	hs, _ := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	body, _ := json.Marshal(map[string]string{"question": "Come apro un conto corrente?"})
	req, _ := http.NewRequest("POST", hs.URL+"/t/banca-alfa/api/ask", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(TraceIDHeader)
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("ask: status %d, trace id %q", resp.StatusCode, id)
	}
	if _, ok := getTrace(t, hs.URL, id); !ok {
		t.Fatalf("GET /api/traces/%s: not retrievable", id)
	}
	if td, ok := getTrace(t, hs.URL+"/t/banca-alfa", id); !ok || td.TraceID != id {
		t.Fatalf("GET /t/banca-alfa/api/traces/%s: ok=%v trace %q", id, ok, td.TraceID)
	}
	other, err := http.Get(hs.URL + "/t/banca-batch/api/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	other.Body.Close()
	if other.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /t/banca-batch/api/traces/%s = %d, want 404 (the trace is banca-alfa's)", id, other.StatusCode)
	}
}

// TestDegradedSearchIsCountedAndRetained: a search whose vector legs were
// shed goes through the same finish step as an ask — counted as a degraded
// query, its trace marked degraded and therefore tail-retained — while the
// body stays the bare result array.
func TestDegradedSearchIsCountedAndRetained(t *testing.T) {
	srv, _ := buildTracedServer(t, nil,
		faulty.Script(faulty.Error, faulty.Error),
		core.Config{Resilience: core.ResilienceConfig{
			EmbedPolicy: resilience.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		}})
	token := login(t, srv.URL, "search.user")
	before := mustSnapshot(t, srv.URL).DegradedQueries

	resp := authedReq(t, http.MethodGet, srv.URL+"/api/search?q=conto+corrente", token, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, want 200", resp.StatusCode)
	}
	var docs []docResponse
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil || len(docs) == 0 {
		t.Fatalf("search body: %d documents, err %v — want the bare result array", len(docs), err)
	}
	if got := mustSnapshot(t, srv.URL).DegradedQueries; got != before+1 {
		t.Fatalf("DegradedQueries = %d, want %d", got, before+1)
	}
	td, ok := getTrace(t, srv.URL, resp.Header.Get(TraceIDHeader))
	if !ok {
		t.Fatal("search trace not retrievable")
	}
	if td.Name != "search" || td.Status != "degraded" || td.Retained != "degraded" {
		t.Fatalf("trace summary = %s/%s/%s, want search/degraded/degraded", td.Name, td.Status, td.Retained)
	}
}
