package chaos

// Noisy-neighbor acceptance: one abusive tenant flooding at ~50× its fair
// rate must not move a well-behaved tenant's p99 beyond a pinned bound, must
// be shed with 429s (never 5xx), and must not starve its own admission —
// some of its traffic still lands. Seeds rotate via CHAOS_SEED like the
// rest of the suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"uniask/internal/core"
	"uniask/internal/kb"
	"uniask/internal/search"
	"uniask/internal/server"
	"uniask/internal/tenant"
	"uniask/internal/trace"
)

// noisyNeighborBound is the pinned p99 bound: under the flood, the
// well-behaved tenant's p99 may be at most 4× its solo p99 plus 100ms of
// absolute slack (scheduler noise on loaded CI machines).
func noisyNeighborBound(solo time.Duration) time.Duration {
	return 4*solo + 100*time.Millisecond
}

// newNoisyNeighborServer builds the two-tenant topology: banca-buona
// (interactive, roomy rate, capped at 8 concurrent) and banca-abusiva
// (best-effort, 10 q/s fair rate, capped at 4 concurrent). Global capacity
// 16 > 4 means the abuser can never occupy the slots banca-buona needs.
func newNoisyNeighborServer(t *testing.T, seed int64) (*httptest.Server, *server.Server) {
	t.Helper()
	f, err := tenant.ParseFile([]byte(`{
		"defaults": {"cacheShare": 64},
		"tenants": {
			"banca-buona":   {"rate": 2000, "burst": 2000, "maxConcurrent": 8},
			"banca-abusiva": {"class": "best-effort", "rate": 10, "burst": 10, "maxConcurrent": 4}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ov := tenant.NewOverrides(f)
	tracer := trace.New(trace.Config{Seed: seed})
	pool := search.NewCachePool(0, 64)

	factory := func(id string, lim tenant.Limits) (*core.Engine, error) {
		corpus := kb.Generate(kb.GenConfig{Docs: 60, Seed: seed + int64(len(id))})
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
	srv := server.NewMultiTenant(reg, ctrl, tracer, pool)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, srv
}

func tenantToken(t *testing.T, base string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": "chaos"})
	resp, err := http.Post(base+"/api/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.Token
}

// searchOnce runs one tenant-scoped search and returns the HTTP status and
// its latency.
func searchOnce(t *testing.T, base, token, tenantID, q string) (int, time.Duration) {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/api/search?q="+q, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set(server.TenantHeader, tenantID)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	lat := time.Since(start)
	if err != nil {
		t.Fatalf("search transport error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	return resp.StatusCode, lat
}

func p99Of(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(0.99*float64(len(s)-1))]
}

func TestChaosNoisyNeighbor(t *testing.T) {
	seed := chaosSeed(t)
	hs, _ := newNoisyNeighborServer(t, seed)
	token := tenantToken(t, hs.URL)
	rng := rand.New(rand.NewSource(seed))

	queries := []string{"conto+corrente", "carta+di+credito", "bonifico+estero", "errore+bonifico", "apertura+conto"}
	pick := func() string { return queries[rng.Intn(len(queries))] }

	const wellBehaved = 60

	// Phase 1 — solo baseline: banca-buona alone, sequential.
	solo := make([]time.Duration, 0, wellBehaved)
	for i := 0; i < wellBehaved; i++ {
		code, lat := searchOnce(t, hs.URL, token, "banca-buona", pick())
		if code != http.StatusOK {
			t.Fatalf("solo request %d: status %d", i, code)
		}
		solo = append(solo, lat)
	}
	soloP99 := p99Of(solo)

	// Phase 2 — flood: banca-abusiva fires 300 requests (≫ 50× what its
	// 10 q/s bucket allows in the test's sub-second window) from 8 workers
	// while banca-buona keeps its sequential pace.
	const floodTotal = 300
	var (
		mu                     sync.Mutex
		abuserOK, abuser429    int
		abuser5xx, abuserOther int
		noisy                  = make([]time.Duration, 0, wellBehaved)
		goodRejected, good5xx  int
	)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < floodTotal/8; i++ {
				q := queries[r.Intn(len(queries))]
				code, _ := searchOnce(t, hs.URL, token, "banca-abusiva", q)
				mu.Lock()
				switch {
				case code == http.StatusOK:
					abuserOK++
				case code == http.StatusTooManyRequests:
					abuser429++
				case code >= 500:
					abuser5xx++
				default:
					abuserOther++
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < wellBehaved; i++ {
		code, lat := searchOnce(t, hs.URL, token, "banca-buona", pick())
		switch {
		case code == http.StatusOK:
			noisy = append(noisy, lat)
		case code >= 500:
			good5xx++
		default:
			goodRejected++
		}
	}
	wg.Wait()

	// The well-behaved tenant: zero rejections, zero 5xx.
	if goodRejected != 0 || good5xx != 0 {
		t.Fatalf("well-behaved tenant saw %d rejections and %d 5xx under the flood, want 0/0", goodRejected, good5xx)
	}
	// The abuser: shed with 429s, never 5xx, but not starved either.
	if abuser5xx != 0 || abuserOther != 0 {
		t.Fatalf("abusive tenant saw %d 5xx and %d unexpected statuses; shedding must be 429-only", abuser5xx, abuserOther)
	}
	if abuser429 == 0 {
		t.Fatalf("abusive tenant was never shed (%d ok) — admission is not limiting", abuserOK)
	}
	if abuserOK == 0 {
		t.Fatal("abusive tenant was fully starved; its fair share must still be admitted")
	}
	// The pinned p99 bound.
	noisyP99 := p99Of(noisy)
	if bound := noisyNeighborBound(soloP99); noisyP99 > bound {
		t.Fatalf("well-behaved p99 moved from %v to %v under the flood, beyond the pinned bound %v",
			soloP99, noisyP99, bound)
	}
	t.Logf("seed %d: solo p99 %v, noisy p99 %v; abuser %d ok / %d shed", seed, soloP99, noisyP99, abuserOK, abuser429)
}
