package server

// Tests for the one dashboard pass: every gauge section of /api/dashboard is
// read from the same list of active engines, on a one-tenant server and on a
// multi-tenant one, including while traffic, publications and a lazy tenant
// build race the polls.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"uniask/internal/core"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/monitor"
)

// getDashboard decodes one GET /api/dashboard.
func getDashboard(t *testing.T, base string) monitor.Dashboard {
	t.Helper()
	var d monitor.Dashboard
	if code := mustGetJSON(t, base+"/api/dashboard", &d); code != http.StatusOK {
		t.Fatalf("dashboard status = %d", code)
	}
	return d
}

// tenantDashboardView decodes one GET /t/{id}/api/dashboard.
type tenantDashboardView struct {
	Tenant string `json:"tenant"`
	Active bool   `json:"active"`
	Gauges *struct {
		Admitted uint64
	} `json:"gauges"`
	Segments []json.RawMessage `json:"segments"`
}

func TestDashboardRowsFromOnePass(t *testing.T) {
	t.Run("one tenant", func(t *testing.T) {
		c := kb.Generate(kb.GenConfig{Docs: 40, Seed: 5})
		eng, err := core.BuildFromCorpus(context.Background(), c, core.Config{ShardCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(New(eng).Handler())
		defer hs.Close()
		token := login(t, hs.URL, "mario")

		resp := authedReq(t, http.MethodPost, hs.URL+"/api/ask", token, map[string]string{"question": c.Docs[0].Title + "?"})
		resp.Body.Close()
		for i := 0; i < 2; i++ {
			authedReq(t, http.MethodGet, hs.URL+"/api/search?q=conto+corrente", token, nil).Body.Close()
		}
		sid, chunkID, _ := conversation(t, hs.URL, token)
		resp = authedReq(t, http.MethodPost, hs.URL+"/api/sessions/"+sid+"/feedback", token,
			map[string]any{"turn": 0, "chunkId": chunkID})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("click status = %d", resp.StatusCode)
		}

		d := getDashboard(t, hs.URL)
		if len(d.Shards) != 2 || len(d.Segments) != 2 {
			t.Fatalf("shard rows %d, segment rows %d, want 2 and 2", len(d.Shards), len(d.Segments))
		}
		if !d.HasCache || d.Cache.Hits < 1 {
			t.Fatalf("cache gauge = %+v (HasCache %v), want a hit from the repeated search", d.Cache, d.HasCache)
		}
		if !d.HasSessions || d.Sessions.Live != 1 {
			t.Fatalf("session gauge = %+v (HasSessions %v), want one live session", d.Sessions, d.HasSessions)
		}
		if len(d.Rerank) != 1 || d.Rerank[0].Clicks != 1 {
			t.Fatalf("rerank rows = %+v, want one row with one click", d.Rerank)
		}
	})

	t.Run("two tenants", func(t *testing.T) {
		hs, _ := newTenantTestServer(t)
		token := login(t, hs.URL, "mario")
		ids := []string{"banca-alfa", "banca-batch"}
		for _, id := range ids {
			tenantSearch(t, hs.URL, token, id, "conto").Body.Close()
		}
		d := getDashboard(t, hs.URL)
		var rows []string
		for _, g := range d.Tenants {
			rows = append(rows, g.Tenant)
		}
		if !slices.Equal(rows, ids) {
			t.Fatalf("tenant rows = %v, want %v", rows, ids)
		}
		for _, id := range ids {
			var v tenantDashboardView
			if code := mustGetJSON(t, hs.URL+"/t/"+id+"/api/dashboard", &v); code != http.StatusOK {
				t.Fatalf("%s dashboard status = %d", id, code)
			}
			if v.Tenant != id || !v.Active || v.Gauges == nil || v.Gauges.Admitted == 0 || len(v.Segments) == 0 {
				t.Fatalf("%s dashboard = %+v, want an active tenant with admissions and segments", id, v)
			}
		}
	})
}

// dashboardTenants names the tenants a dashboard section has rows for.
func dashboardTenants[R any](rows []R, tenantOf func(R) string) []string {
	var out []string
	for _, r := range rows {
		if id := tenantOf(r); !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// TestDashboardRacesTraffic polls both dashboard views while asks run, a
// poller pass publishes and a first request builds a lazy tenant: every
// snapshot's segment and rerank sections must name the same tenants.
func TestDashboardRacesTraffic(t *testing.T) {
	hs, srv := newTenantTestServer(t)
	token := login(t, hs.URL, "mario")
	tenantSearch(t, hs.URL, token, "banca-alfa", "conto").Body.Close()
	alfa, err := srv.Tenants.Engine("banca-alfa")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var polls sync.WaitGroup
	for i := 0; i < 4; i++ {
		polls.Add(1)
		go func() {
			defer polls.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var d monitor.Dashboard
				if code := getJSON(hs.URL+"/api/dashboard", &d); code != http.StatusOK {
					t.Errorf("dashboard status = %d", code)
					return
				}
				segs := dashboardTenants(d.Segments, func(g monitor.SegmentGauge) string { return g.Tenant })
				rr := dashboardTenants(d.Rerank, func(g monitor.RerankGauge) string { return g.Tenant })
				if !slices.Equal(segs, rr) {
					t.Errorf("one snapshot names segment tenants %v but rerank tenants %v", segs, rr)
					return
				}
				var v tenantDashboardView
				if code := getJSON(hs.URL+"/t/banca-alfa/api/dashboard", &v); code != http.StatusOK || !v.Active {
					t.Errorf("banca-alfa dashboard = %d %+v, want 200 and active", code, v)
					return
				}
			}
		}()
	}

	var traffic sync.WaitGroup
	traffic.Add(3)
	go func() {
		defer traffic.Done()
		for i := 0; i < 4; i++ {
			send(t, http.MethodPost, hs.URL+"/t/banca-alfa/api/ask", token,
				fmt.Sprintf(`{"question":"Come apro un conto corrente %d?"}`, i))
		}
	}()
	go func() {
		defer traffic.Done()
		page := ingest.Page{ID: "circolare", HTML: "<html><head><title>Circolare</title></head><body><p>Nuova procedura per il conto corrente.</p></body></html>"}
		if _, err := alfa.NewPoller(context.Background(), ingest.StaticSource{page})(); err != nil {
			t.Errorf("poller pass: %v", err)
		}
	}()
	go func() {
		defer traffic.Done()
		// banca-batch has served nothing yet: this request builds its engine.
		send(t, http.MethodGet, hs.URL+"/t/banca-batch/api/search?q=conto", token, "")
	}()
	traffic.Wait()
	close(stop)
	polls.Wait()

	d := getDashboard(t, hs.URL)
	want := []string{"banca-alfa", "banca-batch"}
	if got := dashboardTenants(d.Segments, func(g monitor.SegmentGauge) string { return g.Tenant }); !slices.Equal(got, want) {
		t.Fatalf("final segment tenants = %v, want %v", got, want)
	}
}

// send is one authenticated request from a goroutine other than the
// test's: a transport error is reported with t.Error, not t.Fatal.
func send(t *testing.T, method, url, token, body string) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
}

// getJSON is mustGetJSON for goroutines other than the test's: it reports
// failure as status 0 instead of stopping the test.
func getJSON(u string, out any) int {
	resp, err := http.Get(u)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return 0
	}
	return resp.StatusCode
}
