package server

// Tests for the one route table, the one front door and the one finish
// step: every table row answers bare and under /t/{tenant}, the four query
// endpoints refuse a request with the same bytes at the same step, and a
// degraded search is accounted like a degraded ask.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/faulty"
	"uniask/internal/resilience"
	"uniask/internal/tenant"
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

// serverShapes are the two registries one Server is built over: the one-bank
// deployment, whose requests name no tenant, and two named tenants.
var serverShapes = []struct {
	name   string
	build  func(*testing.T) (*httptest.Server, *Server)
	tenant string
}{
	{"one tenant", setup, tenant.Default},
	{"two tenants", newTenantTestServer, "banca-alfa"},
}

// routeBodies holds a well-formed body for every row that reads one.
func routeBodies(chunkID string) map[string]string {
	return map[string]string{
		"/api/login":                   `{"user":"mario"}`,
		"/api/ask":                     `{"question":"Come apro un conto corrente?"}`,
		"/api/feedback":                `{"query":"conto","rating":5}`,
		"/api/sessions":                `{}`,
		"/api/sessions/{sid}/ask":      `{"question":"E per un minorenne?"}`,
		"/api/sessions/{sid}/feedback": `{"turn":0,"chunkId":"` + chunkID + `"}`,
	}
}

// doRoute sends the request for one table row under base (a server URL,
// optionally with a /t/{tenant} prefix) and returns the status and body.
func doRoute(t *testing.T, rt route, base string, fill *strings.Replacer, bodies map[string]string, token, tenantHeader string) (int, string) {
	t.Helper()
	url := base + fill.Replace(rt.path)
	if rt.path == "/api/search" {
		url += "?q=conto"
	}
	req, err := http.NewRequest(rt.method, url, strings.NewReader(bodies[rt.path]))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if tenantHeader != "" {
		req.Header.Set(TenantHeader, tenantHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestRouteTableAnswersBareAndScoped is generated from Server.routes(): on
// either server shape every row must answer 2xx bare (a named tenant in the
// header) and, for a named tenant, under /t/{tenant}, so a route registered
// without its alias cannot recur.
func TestRouteTableAnswersBareAndScoped(t *testing.T) {
	for _, shape := range serverShapes {
		t.Run(shape.name, func(t *testing.T) {
			hs, srv := shape.build(t)
			token := login(t, hs.URL, "mario")
			prefixes := []string{""}
			if shape.tenant != tenant.Default {
				prefixes = append(prefixes, "/t/"+shape.tenant)
			}
			sid, chunkID, traceID := conversation(t, hs.URL+prefixes[len(prefixes)-1], token)
			if _, ok := getTrace(t, hs.URL, traceID); !ok {
				t.Fatalf("trace %s not retrievable", traceID)
			}
			fill, bodies := strings.NewReplacer("{sid}", sid, "{id}", traceID), routeBodies(chunkID)
			for _, rt := range srv.routes() {
				for _, prefix := range prefixes {
					header := shape.tenant // bare: the tenant, if named at all, goes in the header
					if prefix != "" {
						header = ""
					}
					if status, msg := doRoute(t, rt, hs.URL+prefix, fill, bodies, token, header); status/100 != 2 {
						t.Errorf("%s %s%s = %d, want 2xx: %s", rt.method, prefix, rt.path, status, msg)
					}
				}
			}
		})
	}
}

// publicRoutes are the rows that answer without a login: the login itself
// and the operator's read-only views. Every other row must pass the front
// door.
var publicRoutes = []string{"/api/login", "/api/health", "/api/dashboard", "/api/traces", "/api/traces/{id}"}

// TestEveryRowPassesTheFrontDoor is generated from Server.routes() too: on
// either server shape every non-public row refuses an unauthenticated request
// with 401 and a request naming a tenant the registry does not serve with the
// unknown-tenant 404 — by path and by header — so a handler that skips
// identify fails here.
func TestEveryRowPassesTheFrontDoor(t *testing.T) {
	fill, bodies := strings.NewReplacer("{sid}", "s-nonexistent", "{id}", "t-nonexistent"), routeBodies("c")
	for _, shape := range serverShapes {
		t.Run(shape.name, func(t *testing.T) {
			hs, srv := shape.build(t)
			token := login(t, hs.URL, "mario")
			for _, rt := range srv.routes() {
				if slices.Contains(publicRoutes, rt.path) {
					continue
				}
				for _, tc := range []struct {
					name, prefix, token, header string
					status                      int
					body                        string
				}{
					{name: "no login", status: http.StatusUnauthorized, body: "login required"},
					{name: "unknown tenant by path", prefix: "/t/banca-ignota", token: token, status: http.StatusNotFound, body: "unknown tenant"},
					{name: "unknown tenant by header", header: "banca-ignota", token: token, status: http.StatusNotFound, body: "unknown tenant"},
				} {
					status, msg := doRoute(t, rt, hs.URL+tc.prefix, fill, bodies, tc.token, tc.header)
					if status != tc.status || !strings.Contains(msg, tc.body) {
						t.Errorf("%s, %s %s%s = %d %s, want %d %q", tc.name, rt.method, tc.prefix, rt.path, status, msg, tc.status, tc.body)
					}
				}
			}
		})
	}
}

// TestDefaultTenantFrontDoorIsFree pins what the one-bank deployment pays
// for being a one-tenant registry: its tenant check, admission step, engine
// lookup and limits lookups take no lock and allocate nothing, and its
// sessions stay uncapped.
func TestDefaultTenantFrontDoorIsFree(t *testing.T) {
	_, api := setup(t)
	w := httptest.NewRecorder()
	q := &query{tenant: tenant.Default, ctx: context.Background(), release: func(time.Duration) {}}
	allocs := testing.AllocsPerRun(1000, func() {
		if !api.checkTenant(w, q.tenant) || !api.admit(w, q) ||
			api.Tenants.Limits(q.tenant).TraceSampleRate != 0 || api.tenantSessionCap(q.tenant) != 0 {
			t.Fatal("the default tenant was refused, sampled or session-capped")
		}
	})
	if allocs != 0 || q.eng != defaultEngine(t, api) || q.ctx != context.Background() {
		t.Fatalf("default-tenant front door: %.0f allocs/request, engine %p, ctx %v — want 0, the adopted engine, the untouched context", allocs, q.eng, q.ctx)
	}
}

// TestFeedbackIsTenantScoped: the feedback form passes the front door like
// every other authenticated row, the stored entry carries its tenant, and a
// tenant's ground-truth harvest holds its own links only.
func TestFeedbackIsTenantScoped(t *testing.T) {
	hs, srv := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	post := func(prefix, body string) int {
		t.Helper()
		req, _ := http.NewRequest("POST", hs.URL+prefix+"/api/feedback", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const form = `{"query":"come bloccare la carta?","rating":2,"links":["%s"]}`
	for _, tc := range []struct {
		prefix string
		status int
	}{
		{"/t/banca-alfa", http.StatusCreated},
		{"/t/banca-batch", http.StatusCreated},
		{"/t/banca-ignota", http.StatusNotFound},
		{"/t/BAD!!", http.StatusBadRequest},
		{"", http.StatusBadRequest},
	} {
		if got := post(tc.prefix, fmt.Sprintf(form, "kb"+tc.prefix)); got != tc.status {
			t.Errorf("POST %s/api/feedback = %d, want %d", tc.prefix, got, tc.status)
		}
	}
	if all := srv.Feedback.All(); len(all) != 2 || all[0].Tenant != "banca-alfa" || all[1].Tenant != "banca-batch" {
		t.Fatalf("stored feedback = %+v, want one entry per served tenant, each carrying it", all)
	}
	ds := srv.Feedback.HarvestGroundTruth("banca-alfa")
	if len(ds.Queries) != 1 || !slices.Equal(ds.Queries[0].Relevant, []string{"kb/t/banca-alfa"}) {
		t.Fatalf("banca-alfa harvest = %+v, want its own link only", ds.Queries)
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
