package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"uniask/internal/core"
	"uniask/internal/faulty"
	"uniask/internal/kb"
	"uniask/internal/resilience"
	"uniask/internal/search"
)

// getSearch fetches /api/search?q= and returns the body after checking the
// status and the headers every search body carries.
func getSearch(t *testing.T, base, token, q string) []byte {
	t.Helper()
	resp := authedReq(t, http.MethodGet, base+"/api/search?q="+url.QueryEscape(q), token, nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search %q: status %d: %s", q, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("search %q: Content-Type %q", q, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("search %q: Content-Length %q for a %d-byte body", q, cl, len(body))
	}
	return body
}

// encodedViews is the body the server wrote before bodies were rendered
// once: writeJSON's encoder over docViews(results, 20).
func encodedViews(results []search.Result) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(docViews(results, 20))
	return buf.Bytes()
}

// TestSearchBodyByteIdentity: for corpus queries the body of a miss equals
// the body of the hit after it, and both equal the encoder's rendering of
// the engine's ranking. Without a query cache every request renders its own
// body, with the same bytes.
func TestSearchBodyByteIdentity(t *testing.T) {
	c := kb.Generate(kb.GenConfig{Docs: 60, Seed: 21})
	var queries []string
	seen := map[string]bool{}
	for _, d := range c.Docs[:8] {
		queries = append(queries, d.Title)
		seen[d.Title] = true
	}
	for _, q := range c.HumanDataset(8, 3).Queries {
		if !seen[q.Text] {
			queries = append(queries, q.Text)
			seen[q.Text] = true
		}
	}
	for _, tc := range []struct {
		name     string
		capacity int
	}{
		{"cached", 0},
		{"uncached", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.BuildFromCorpus(context.Background(), c, core.Config{QueryCacheCapacity: tc.capacity})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(New(eng).Handler())
			defer srv.Close()
			token := login(t, srv.URL, "byte.identity")
			for _, q := range queries {
				first := getSearch(t, srv.URL, token, q)
				second := getSearch(t, srv.URL, token, q)
				hits, err := eng.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want := encodedViews(hits.Results)
				if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
					t.Fatalf("%q: bodies differ from the encoded views:\nmiss %s\nhit  %s\nwant %s", q, first, second, want)
				}
			}
			cache := eng.Searcher.Cache
			if (cache != nil) != (tc.capacity >= 0) {
				t.Fatalf("QueryCacheCapacity %d: cache built = %v", tc.capacity, cache != nil)
			}
			if cache != nil {
				if st := cache.Stats(); st.Hits != uint64(2*len(queries)) {
					t.Fatalf("cache stats %+v, want %d hits (the repeat and the check)", st, 2*len(queries))
				}
			}
		})
	}
}

// TestDegradedSearchBodyPerRequest: a degraded ranking is never cached, so
// each request renders its own body, and that body is the encoding of the
// degraded ranking.
func TestDegradedSearchBodyPerRequest(t *testing.T) {
	srv, api := buildTracedServer(t, nil, faulty.NewSchedule(1, 1, 0, 0, 0),
		core.Config{Resilience: core.ResilienceConfig{
			EmbedPolicy: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		}})
	eng := defaultEngine(t, api)
	token := login(t, srv.URL, "degraded.body")
	const q = "conto corrente"
	first := getSearch(t, srv.URL, token, q)
	second := getSearch(t, srv.URL, token, q)
	hits, err := eng.Search(context.Background(), q)
	if err != nil || !hits.Degradation.Degraded() {
		t.Fatalf("search: degradation %+v, err %v; want a degraded ranking", hits.Degradation, err)
	}
	want := encodedViews(hits.Results)
	if len(hits.Results) == 0 || !bytes.Equal(first, want) || !bytes.Equal(second, want) {
		t.Fatalf("degraded bodies differ from the encoded views:\nfirst  %s\nsecond %s\nwant   %s", first, second, want)
	}
	if st := eng.Searcher.Cache.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("cache stats %+v: a degraded ranking was cached", st)
	}
}

func TestSnippetRuneBoundary(t *testing.T) {
	a := func(n int) string { return strings.Repeat("a", n) }
	for _, tc := range []struct {
		name, text, want string
	}{
		{"rune straddles the cut", a(159) + "è" + a(20), a(159) + "…"},
		{"no space at all", a(200), a(160) + "…"},
		{"space only at index 0", " " + a(158) + "è" + a(20), " " + a(158) + "…"},
		{"exactly max bytes", strings.Repeat("è", 80), strings.Repeat("è", 80)},
		{"word boundary", a(100) + " " + a(100), a(100) + "…"},
		{"word boundary before a straddling rune", a(100) + " " + a(58) + "è" + a(5), a(100) + "…"},
	} {
		got := snippet(tc.text, 160)
		if got != tc.want {
			t.Errorf("%s: snippet = %q, want %q", tc.name, got, tc.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("%s: snippet %q is not valid UTF-8", tc.name, got)
		}
	}
}

// searchHitRequest logs a user in through h and returns an authenticated
// /api/search request for q, after one request that caches its ranking
// and one that renders the entry's body.
func searchHitRequest(tb testing.TB, h http.Handler, q string) *http.Request {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/login", strings.NewReader(`{"user":"bench"}`)))
	var out loginResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/search?q="+url.QueryEscape(q), nil)
	req.Header.Set("Authorization", "Bearer "+out.Token)
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("search status %d", rec.Code)
		}
	}
	return req
}

// BenchmarkServeSearchHit times one /api/search cache hit through
// server.Handler(): routing, auth, admission, the trace root, the cache
// lookup and the body write, into an httptest recorder.
func BenchmarkServeSearchHit(b *testing.B) {
	_, api := benchSetup(b)
	h := api.Handler()
	req := searchHitRequest(b, h, corpus.Docs[1].Title)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// searchHitAllocCeiling is the measured allocation count of one
// /api/search cache hit through the handler into a recorder, plus 10 %.
const searchHitAllocCeiling = 35

// TestServeSearchHitAllocs holds the cache-hit path of /api/search to its
// measured allocation count: a change that puts a per-hit render or copy
// back shows here.
func TestServeSearchHitAllocs(t *testing.T) {
	_, api := setup(t)
	h := api.Handler()
	req := searchHitRequest(t, h, corpus.Docs[1].Title)
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	t.Logf("%.0f allocations per cache hit", allocs)
	if allocs > searchHitAllocCeiling {
		t.Fatalf("a cache hit allocates %.0f times, ceiling %d", allocs, searchHitAllocCeiling)
	}
}
