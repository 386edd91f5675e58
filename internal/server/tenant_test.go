package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"testing"

	"uniask/internal/core"
	"uniask/internal/kb"
	"uniask/internal/search"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// newTenantTestServer assembles a two-tenant server: banca-alfa
// (interactive, roomy limits) and banca-batch (best-effort, tight rate).
func newTenantTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	f, err := tenant.ParseFile([]byte(`{
		"defaults": {"rate": 1000, "burst": 1000, "maxConcurrent": 8, "cacheShare": 64},
		"tenants": {
			"banca-alfa":  {},
			"banca-batch": {"class": "best-effort", "rate": 2, "burst": 2}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ov := tenant.NewOverrides(f)
	tracer := trace.New(trace.Config{})
	pool := search.NewCachePool(0, 64)

	factory := func(id string, lim tenant.Limits) (*core.Engine, error) {
		corpus := kb.Generate(kb.GenConfig{Docs: 40, Seed: int64(len(id))})
		eng, err := tenant.StandardFactory(core.Config{Lexicon: corpus.Lexicon()}, pool, tracer)(id, lim)
		if err != nil {
			return nil, err
		}
		if err := eng.IndexCorpus(context.Background(), corpus); err != nil {
			return nil, err
		}
		return eng, nil
	}
	reg := tenant.NewRegistry(ov, factory)
	ctrl := tenant.NewController(tenant.AdmissionConfig{Capacity: 16}, ov)
	srv := NewMultiTenant(reg, ctrl, tracer, pool)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, srv
}

func tenantSearch(t *testing.T, base, token, tenantID, q string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/api/search?q="+q, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	if tenantID != "" {
		req.Header.Set(TenantHeader, tenantID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTenantRoutingHeaderAndPath(t *testing.T) {
	hs, _ := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")

	// Header form.
	resp := tenantSearch(t, hs.URL, token, "banca-alfa", "conto")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-routed search status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Path form: /t/{tenant}/api/search.
	req, _ := http.NewRequest("GET", hs.URL+"/t/banca-alfa/api/search?q=conto", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("path-routed search status = %d", resp2.StatusCode)
	}

	// No tenant at all: 400 with a hint, not a 5xx.
	resp3 := tenantSearch(t, hs.URL, token, "", "conto")
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("tenantless request status = %d, want 400", resp3.StatusCode)
	}

	// Unknown tenant: 404 (onboarding is explicit, not implicit).
	resp4 := tenantSearch(t, hs.URL, token, "banca-ignota", "conto")
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", resp4.StatusCode)
	}
}

// TestTenantShedIs429WithRetryAfter floods banca-batch past its 2 q/s
// bucket: shed responses must be 429 with a positive Retry-After header and
// a machine-readable reason — never a 5xx.
func TestTenantShedIs429WithRetryAfter(t *testing.T) {
	hs, _ := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")

	var shed *http.Response
	for i := 0; i < 10; i++ {
		resp := tenantSearch(t, hs.URL, token, "banca-batch", "conto")
		if resp.StatusCode >= 500 {
			t.Fatalf("request %d: shed path answered %d, must never be 5xx", i, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		resp.Body.Close()
	}
	if shed == nil {
		t.Fatal("10 immediate requests against a 2 q/s bucket never shed")
	}
	defer shed.Body.Close()
	ra, err := strconv.Atoi(shed.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", shed.Header.Get("Retry-After"))
	}
	var body struct {
		Error  string `json:"error"`
		Tenant string `json:"tenant"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(shed.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "banca-batch" || body.Reason != string(tenant.ReasonRate) {
		t.Fatalf("shed body = %+v", body)
	}
}

// sortedKeys lists a decoded JSON object's field names.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// healthKeys fetches a health payload and returns its status, its top-level
// field names, and per listed breaker "name" plus the breaker's field names.
func healthKeys(t *testing.T, url string) (status string, fields, breakers []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	var rows []map[string]any
	json.Unmarshal(body["breakers"], &rows)
	for _, row := range rows {
		breakers = append(breakers, fmt.Sprint(row["name"], sortedKeys(row)))
	}
	json.Unmarshal(body["status"], &status)
	// The two fields that say which scope was asked, not what it found.
	delete(body, "tenant")
	delete(body, "tenants")
	return status, sortedKeys(body), breakers
}

func TestTenantDashboardAndHealthViews(t *testing.T) {
	hs, _ := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	tenantSearch(t, hs.URL, token, "banca-alfa", "conto").Body.Close()

	// Per-tenant dashboard: only banca-alfa's slice.
	resp, err := http.Get(hs.URL + "/t/banca-alfa/api/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant dashboard status = %d", resp.StatusCode)
	}
	var dash struct {
		Tenant string `json:"tenant"`
		Active bool   `json:"active"`
		Gauges *struct {
			Admitted uint64 `json:"Admitted"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dash); err != nil {
		t.Fatal(err)
	}
	if dash.Tenant != "banca-alfa" || !dash.Active {
		t.Fatalf("dashboard = %+v, want active banca-alfa", dash)
	}
	if dash.Gauges == nil || dash.Gauges.Admitted == 0 {
		t.Fatalf("dashboard gauges = %+v, want admitted > 0", dash.Gauges)
	}

	// Per-tenant health: active tenant is ok, idle tenant reports idle.
	for _, tc := range []struct{ id, status string }{
		{"banca-alfa", "ok"}, {"banca-batch", "idle"},
	} {
		hr, err := http.Get(hs.URL + "/t/" + tc.id + "/api/health")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status string `json:"status"`
		}
		json.NewDecoder(hr.Body).Decode(&health)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK || health.Status != tc.status {
			t.Fatalf("%s health = %d %q, want 200 %q", tc.id, hr.StatusCode, health.Status, tc.status)
		}
	}
	// Unknown tenant health: 404.
	hr, _ := http.Get(hs.URL + "/t/banca-ignota/api/health")
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant health = %d, want 404", hr.StatusCode)
	}

	// Parity with the one-tenant server. Once every tenant has served a
	// query, the unscoped dashboard carries the index gauges New installs —
	// segment rows with the write-amplification counters, labelled by tenant,
	// and the cache gauge — under the same field names.
	tenantSearch(t, hs.URL, token, "banca-batch", "conto").Body.Close()
	one, _ := setup(t)
	authedReq(t, http.MethodGet, one.URL+"/api/search?q=conto", login(t, one.URL, "mario"), nil).Body.Close()
	fetch := func(url string) (top map[string]json.RawMessage, segments []map[string]any) {
		t.Helper()
		resp, err := http.Get(url + "/api/dashboard")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
			t.Fatal(err)
		}
		json.Unmarshal(top["Segments"], &segments)
		return top, segments
	}
	multi, multiSegs := fetch(hs.URL)
	single, singleSegs := fetch(one.URL)
	if len(multi) != len(single) {
		t.Fatalf("dashboard fields: two tenants %d, one tenant %d", len(multi), len(single))
	}
	wantRow := []string{"Backlog", "ChunksRewritten", "ChunksSealed", "Compactions", "MemtableDocs",
		"Seals", "Segments", "Shard", "StatsKey", "Tenant"}
	if len(singleSegs) != 1 || singleSegs[0]["Tenant"] != "" || !slices.Equal(sortedKeys(singleSegs[0]), wantRow) {
		t.Fatalf("one-tenant segment rows = %v, want one row of %v labelled with the default tenant", singleSegs, wantRow)
	}
	var owners []any
	for _, row := range multiSegs {
		owners = append(owners, row["Tenant"])
		if !slices.Equal(sortedKeys(row), wantRow) || row["ChunksSealed"].(float64) == 0 {
			t.Fatalf("two-tenant segment row = %v, want fields %v and chunks sealed", row, wantRow)
		}
	}
	if fmt.Sprint(owners) != "[banca-alfa banca-batch]" {
		t.Fatalf("segment rows owned by %v, want one per tenant", owners)
	}
	for name, top := range map[string]map[string]json.RawMessage{"two tenants": multi, "one tenant": single} {
		var cache struct{ Hits, Misses uint64 }
		json.Unmarshal(top["Cache"], &cache)
		if string(top["HasCache"]) != "true" || cache.Hits+cache.Misses == 0 {
			t.Fatalf("%s: HasCache = %s, cache = %+v, want a consulted cache", name, top["HasCache"], cache)
		}
	}

	// One health payload: the same fields and the same breakers — all of
	// them, not only the open ones — whichever way the probe is asked.
	wantStatus, wantFields, wantBreakers := healthKeys(t, one.URL+"/api/health")
	if wantStatus != "ok" || len(wantBreakers) == 0 {
		t.Fatalf("one-tenant health = %q with breakers %v", wantStatus, wantBreakers)
	}
	for _, url := range []string{hs.URL + "/t/banca-alfa/api/health", hs.URL + "/api/health"} {
		status, fields, breakers := healthKeys(t, url)
		if url == hs.URL+"/api/health" {
			breakers = breakers[:len(breakers)/2] // two tenants, each with the one-tenant set
		}
		if status != wantStatus || !slices.Equal(fields, wantFields) || !slices.Equal(breakers, wantBreakers) {
			t.Fatalf("%s = %q %v %v, want %q %v %v", url, status, fields, breakers, wantStatus, wantFields, wantBreakers)
		}
	}
}

// TestTenantTraceAttribute checks the tenant span attribute lands on root
// spans and that /api/traces filters by it — both via the tenant query
// param and the TraceQL-lite matcher.
func TestTenantTraceAttribute(t *testing.T) {
	hs, srv := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	tenantSearch(t, hs.URL, token, "banca-alfa", "conto").Body.Close()

	// Ask with a body to get a POST root span too.
	body, _ := json.Marshal(map[string]string{"question": "Come apro un conto corrente?"})
	req, _ := http.NewRequest("POST", hs.URL+"/t/banca-alfa/api/ask", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, url := range []string{
		hs.URL + "/api/traces?tenant=banca-alfa",
		hs.URL + "/t/banca-alfa/api/traces",
		hs.URL + "/api/traces?q=" + "tenant%3Dbanca-alfa",
	} {
		lr, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var rows []map[string]any
		json.NewDecoder(lr.Body).Decode(&rows)
		lr.Body.Close()
		if len(rows) == 0 {
			t.Fatalf("%s returned no traces", url)
		}
	}
	// A filter on the other tenant returns nothing.
	lr, _ := http.Get(hs.URL + "/api/traces?tenant=banca-batch")
	var rows []map[string]any
	json.NewDecoder(lr.Body).Decode(&rows)
	lr.Body.Close()
	if len(rows) != 0 {
		t.Fatalf("banca-batch filter matched %d traces, want 0", len(rows))
	}
	_ = srv
}
