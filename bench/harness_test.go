package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"uniask/internal/kb"
)

const testDocs = 170

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSampleCountRules(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// A percentile is reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The spread must be the one the acceptance driver computes:
// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
func TestIQRShareFollowsPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare = %g, want 1", got)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one value = %g, want 0", got)
	}
}

func TestSelfTimeFromHandBuiltSpans(t *testing.T) {
	root := span{Layer: layerTransport, Name: rootSpanName, Start: 0, End: 100}
	spans := []span{
		{Layer: layerServer, Start: 10, End: 90},
		{Layer: layerGeneration, Start: 20, End: 60},
		{Layer: layerLLM, Start: 30, End: 50},
		// Two parallel legs: their overlap must count once.
		{Layer: layerIndex, Start: 62, End: 80},
		{Layer: layerIndex, Start: 70, End: 85},
		// Outside the root: clipped away.
		{Layer: layerSSE, Start: 100, End: 120},
	}
	want := map[string]int64{
		layerTransport: 20, layerServer: 17, layerGeneration: 20, layerLLM: 20, layerIndex: 23,
	}
	got := selfTimes(root, spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != root.End-root.Start {
		t.Errorf("layers sum to %d, root is %d", sum, root.End-root.Start)
	}
}

func TestDerivedSpansAndLedger(t *testing.T) {
	spans := []span{
		{Req: 1, Layer: layerTransport, Name: rootSpanName, Start: 0, End: 1000},
		{Req: 1, Layer: layerServer, Name: "server.handler", Start: 100, End: 900, N: 512},
		{Req: 1, Layer: layerGuardrails, Name: "stage.filter", Start: 110, End: 120},
		{Req: 1, Layer: layerSearch, Name: "search.mark", Start: 130, End: 130},
		{Req: 1, Layer: layerIndex, Name: "index.text", Start: 200, End: 300},
		{Req: 1, Layer: layerRerank, Name: "stage.rerank", Start: 400, End: 600, N: 50},
		{Req: 1, Layer: layerSearch, Name: "search.mark", Start: 610, End: 610},
		{Req: 1, Layer: layerGuardrails, Name: "stage.guardrails", Start: 800, End: 850},
		// A second request that never reaches the index.
		{Req: 2, Layer: layerTransport, Name: rootSpanName, Start: 2000, End: 2100},
		{Req: 2, Layer: layerServer, Name: "server.handler", Start: 2010, End: 2090},
		// Background work belongs to no request.
		{Req: 0, Layer: layerIngest, Name: "ingest.pass", Start: 0, End: 5000},
	}
	derived := deriveSpans(1, spans[1:8])
	if len(derived) != 2 ||
		derived[0].Name != "search.search" || derived[0].Start != 130 || derived[0].End != 610 ||
		derived[1].Name != "core.ask" || derived[1].Start != 110 || derived[1].End != 850 {
		t.Fatalf("derived spans = %+v", derived)
	}
	lg := buildLedger(spans)
	if lg.Requests != 2 {
		t.Fatalf("ledger has %d requests, want 2", lg.Requests)
	}
	if !near(lg.CoveragePct, 100) {
		t.Errorf("coverage = %g%%, want 100", lg.CoveragePct)
	}
	if got := lg.Calls["index.text"]; !near(got, 0.5) {
		t.Errorf("index.text calls per request = %g, want 0.5", got)
	}
	if got := lg.N["stage.rerank"]; !near(got, 25) {
		t.Errorf("rerank candidates per request = %g, want 25", got)
	}
	// Request 2 spent nothing on the index: the median is over both.
	if got := lg.Total["index.text"].P50; !near(got, 0.00005) {
		t.Errorf("index.text median per request = %g ms, want 0.00005", got)
	}
}

func TestPacedWriterTimesFromTheDueInstant(t *testing.T) {
	const interval = 10 * time.Millisecond
	const work = 25 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	passes := pace(ctx, time.Now(), interval, func(k int) (int, error) {
		time.Sleep(work)
		if k == 3 {
			cancel()
		}
		return 1, nil
	})
	if len(passes) != 4 {
		t.Fatalf("%d passes, want 4", len(passes))
	}
	for k, p := range passes {
		// Pass k is due at k*interval but cannot start before k*work.
		wantLate := time.Duration(k) * (work - interval)
		if p.lateness() < wantLate || p.lateness() > wantLate+20*time.Millisecond {
			t.Errorf("pass %d lateness %v, want about %v", k, p.lateness(), wantLate)
		}
		if got := p.latency() - p.lateness(); got < work {
			t.Errorf("pass %d latency %v does not include its %v of work after %v lateness", k, p.latency(), work, p.lateness())
		}
		if p.latency() != p.end.Sub(p.due) {
			t.Errorf("pass %d latency is not counted from its due instant", k)
		}
	}
}

func TestNon2xxCountsAsFailedAndNotAsLatency(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 0 {
			http.Error(w, `{"error":"forced"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(askReply{Answer: "ok", Documents: []doc{{ID: "c1", Parent: "kb1"}}})
	}))
	defer srv.Close()
	c := newAPIClient(srv.URL, nil)
	defer c.close()
	drv := &coldDriver{pool: &coldPool{questions: []kb.Query{{Text: "domanda", Kind: kb.HumanQuery}}}}
	ph := runPhase(context.Background(), []*apiClient{c}, drv, 100*time.Millisecond, nil)
	if ph.failed == 0 || ph.failed+len(ph.ops) != ph.attempted {
		t.Fatalf("attempted %d, failed %d, latency samples %d", ph.attempted, ph.failed, len(ph.ops))
	}
	if d := ph.attempted - 2*ph.failed; d < 0 || d > 1 {
		t.Errorf("every second request was forced to fail: attempted %d, failed %d", ph.attempted, ph.failed)
	}
	lat, _ := ph.latencies()
	if len(lat) != len(ph.ops) {
		t.Errorf("%d latencies for %d successful operations", len(lat), len(ph.ops))
	}
}

// The decorators must not change what the program answers: the same
// requests through a traced and an untraced build of each topology give the
// same rankings and the same answers.
func TestDecoratorsAreTransparent(t *testing.T) {
	ctx := context.Background()
	corpus := kb.Generate(kb.GenConfig{Docs: testDocs, Seed: 7})
	queries := append(corpus.HumanDataset(15, 70).Queries, corpus.KeywordDataset(15, 71).Queries...)
	for _, name := range []string{topoSingle, topoRemote4} {
		t.Run(name, func(t *testing.T) {
			type answers struct {
				search [][]byte
				asks   []askReply
			}
			collect := func(rec *recorder) answers {
				topo, err := buildTopology(ctx, name, corpus, rec)
				if err != nil {
					t.Fatal(err)
				}
				defer topo.drain()
				defer topo.close()
				c := newAPIClient(topo.baseURL, rec)
				defer c.close()
				if err := c.login(ctx, "tester"); err != nil {
					t.Fatal(err)
				}
				if rec != nil {
					rec.on.Store(true)
				}
				var out answers
				for _, q := range queries {
					body, err := c.do(ctx, http.MethodGet, "/api/search?q="+url.QueryEscape(q.Text), nil, http.StatusOK)
					if err != nil {
						t.Fatal(err)
					}
					out.search = append(out.search, body)
					reply, err := c.ask(ctx, q.Text)
					if err != nil {
						t.Fatal(err)
					}
					out.asks = append(out.asks, reply)
				}
				return out
			}
			plain := collect(nil)
			rec := newRecorder()
			traced := collect(rec)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatal("traced build answers differently from the untraced build")
			}
			if len(rec.take()) == 0 {
				t.Fatal("traced build recorded no span")
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		def          metricDef
		base, change []float64
		want         string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slower within bound", lower, steady, scale(steady, 1.08), verdictOK},
		{"slower beyond bound", lower, steady, scale(steady, 1.2), verdictRegressed},
		{"faster", lower, steady, scale(steady, 0.5), verdictOK},
		{"throughput down", higher, steady, scale(steady, 0.8), verdictRegressed},
		{"throughput up", higher, steady, scale(steady, 1.3), verdictOK},
		{"too noisy to tell", lower, noisy, scale(noisy, 1.05), verdictUnresolved},
		{"noisy but every run better", lower, noisy, scale(steady, 0.5), verdictOK},
	} {
		if _, _, got := judge(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json at the repository root is the contract other changes are
// judged by; it must name exactly what the code measures.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != pinnedSeconds {
		t.Errorf("run_seconds = %g, the code pins %d", spec.RunSeconds, pinnedSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the code has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}

// Every workload runs end to end on a small corpus with a one-second
// window, traced and untraced, and reports every metric of its mode. The
// window is too short for the sample-count rule, so only failed operations
// and missing metrics fail the test.
func TestEveryWorkloadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up eight servers")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(context.Background(), runConfig{
				workload: w, traced: traced, seed: 3, seconds: 1, docs: testDocs,
				clients: 2, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in the wrong unit (%+v)", w.name, traced, d.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, m.Value)
				}
			}
			// Under the race detector a one-second window may end before the
			// first traced conversation does; then there is no ledger to check.
			if traced && res.Ledger.Requests > 0 && res.Ledger.CoveragePct < 95 {
				t.Errorf("%s: ledger covers %.1f%% of the client latency", w.name, res.Ledger.CoveragePct)
			}
		}
	}
}
