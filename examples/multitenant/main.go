// Multi-tenant serving: two banks with different quotas share one UniAsk
// deployment. banca-alfa is interactive with a roomy envelope; banca-batch
// is a best-effort tenant with a tight rate limit that we deliberately
// flood from 8 workers. The admission front door sheds the flood with
// 429 + Retry-After while banca-alfa's p99 stays put — the noisy-neighbor
// experiment from internal/chaos in miniature (docs/MULTITENANCY.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uniask"
	"uniask/internal/tenant"
)

const overrides = `{
  "defaults": {"cacheShare": 64},
  "tenants": {
    "banca-alfa":  {"rate": 2000, "burst": 2000, "maxConcurrent": 8},
    "banca-batch": {"class": "best-effort", "rate": 20, "burst": 20, "maxConcurrent": 4}
  }
}`

func main() {
	dir, err := os.MkdirTemp("", "uniask-multitenant")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "overrides.json")
	if err := os.WriteFile(path, []byte(overrides), 0o644); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	api, err := uniask.NewMultiTenantServer(ctx, uniask.MultiTenantConfig{
		OverridesPath: path,
		Admission:     uniask.AdmissionConfig{Capacity: 16},
		Corpus: func(tenantID string) *uniask.Corpus {
			return uniask.SyntheticCorpus(300, int64(len(tenantID)))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	fmt.Println("two-tenant service up at", srv.URL)

	token := login(srv.URL)
	queries := []string{
		"conto corrente", "carta di credito", "bonifico estero",
		"errore bonifico", "apertura conto",
	}

	// Phase 1 — banca-alfa alone: the solo latency baseline.
	solo := make([]time.Duration, 0, 40)
	for i := 0; i < 40; i++ {
		_, lat := search(srv.URL, token, "banca-alfa", queries[i%len(queries)])
		solo = append(solo, lat)
	}

	// Phase 2 — banca-batch floods from 8 workers (200 requests against a
	// 20-token bucket) while banca-alfa keeps its sequential pace.
	var (
		mu       sync.Mutex
		batchOK  int
		batch429 int
	)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, _ := search(srv.URL, token, "banca-batch", queries[(w+i)%len(queries)])
				mu.Lock()
				switch code {
				case http.StatusOK:
					batchOK++
				case http.StatusTooManyRequests:
					batch429++
				default:
					log.Fatalf("banca-batch got %d; shedding must be 429, never 5xx", code)
				}
				mu.Unlock()
			}
		}(w)
	}
	noisy := make([]time.Duration, 0, 40)
	alfaShed := 0
	for i := 0; i < 40; i++ {
		code, lat := search(srv.URL, token, "banca-alfa", queries[i%len(queries)])
		if code != http.StatusOK {
			alfaShed++
			continue
		}
		noisy = append(noisy, lat)
	}
	wg.Wait()

	fmt.Println()
	fmt.Printf("banca-alfa  (interactive): p99 solo %-8v p99 under flood %-8v shed %d\n",
		tenant.P99(solo).Round(time.Microsecond), tenant.P99(noisy).Round(time.Microsecond), alfaShed)
	fmt.Printf("banca-batch (best-effort): %d served, %d shed with 429 + Retry-After\n",
		batchOK, batch429)

	// The server-side view of the same story: per-tenant dashboard gauges.
	for _, id := range []string{"banca-alfa", "banca-batch"} {
		var dash struct {
			Gauges struct {
				Admitted     uint64            `json:"Admitted"`
				Shed         uint64            `json:"Shed"`
				ShedByReason map[string]uint64 `json:"ShedByReason"`
			} `json:"gauges"`
		}
		get(srv.URL+"/t/"+id+"/api/dashboard", &dash)
		fmt.Printf("  /t/%s/api/dashboard: admitted %d, shed %d %v\n",
			id, dash.Gauges.Admitted, dash.Gauges.Shed, dash.Gauges.ShedByReason)
	}
}

func login(base string) string {
	body, _ := json.Marshal(map[string]string{"user": "operatore"})
	resp, err := http.Post(base+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.Token
}

// search runs one tenant-scoped query (header routing) and returns the
// status code and round-trip latency. A 429 must carry Retry-After.
func search(base, token, tenantID, q string) (int, time.Duration) {
	req, _ := http.NewRequest("GET", base+"/api/search?q="+url.QueryEscape(q), nil)
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("X-Uniask-Tenant", tenantID)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		log.Fatal("429 without Retry-After")
	}
	return resp.StatusCode, time.Since(start)
}

func get(u string, out interface{}) {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(out)
}
