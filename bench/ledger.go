package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The per-layer ledger: what each request's wall-clock time was spent on,
// layer by layer, computed from the spans of a traced run.
//
// The retrieval legs of one request run in parallel and the SSE client
// parses while the server still generates, so spans overlap and "duration
// minus children" would count the overlap twice. The ledger instead sweeps
// each request's timeline and gives every instant to the deepest layer
// (layerOrder) that has a span open then. That is the same self time on a
// sequential trace — a span minus the part its children cover — and on a
// parallel one the layers still sum to the client-observed latency.

// dist is a per-request distribution summary, in milliseconds.
type dist struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
}

func distOf(xs []float64) dist {
	s := sortedCopy(xs)
	return dist{P50: percentile(s, 50), P95: percentile(s, 95)}
}

// ledger summarises the traced requests of one run.
type ledger struct {
	Requests int `json:"requests"`
	// Self is each layer's self time per request.
	Self map[string]dist `json:"self_ms"`
	// Total is, per span name, the summed span time per request.
	Total map[string]dist `json:"total_ms"`
	// Calls and N are per-request means of span count and work count.
	Calls map[string]float64 `json:"calls_per_req"`
	N     map[string]float64 `json:"n_per_req"`
	// CoveragePct is the median over requests of (sum of layer self times
	// ÷ client-observed latency), in percent.
	CoveragePct float64 `json:"coverage_pct"`
}

const rootSpanName = "transport.request"

// coreLayers are the layers whose stage reports come from the engine's
// Ask flow itself; their hull is the derived core span.
var coreLayers = map[string]bool{layerGuardrails: true, layerSession: true, layerGeneration: true}

// searchLayers are the layers that only run inside a searcher call; their
// hull is the derived search span.
var searchLayers = map[string]bool{
	layerSearch: true, layerFusion: true, layerRerank: true,
	layerEmbedding: true, layerIndex: true, layerShard: true, layerRemote: true,
}

// deriveSpans adds the spans of the two layers that have no seam. The
// searcher's span is the hull of everything that only happens inside a
// search (its stage reports, the index calls, the DeletesSince marks that
// open and close every cached search); the engine's is the hull of its own
// stage reports and the search inside them.
func deriveSpans(req int64, spans []span) []span {
	hull := func(in map[string]bool, extra *span) (span, bool) {
		var h span
		found := false
		grow := func(s span) {
			if !found {
				h, found = span{Start: s.Start, End: s.End}, true
				return
			}
			if s.Start < h.Start {
				h.Start = s.Start
			}
			if s.End > h.End {
				h.End = s.End
			}
		}
		for _, s := range spans {
			if in[s.Layer] {
				grow(s)
			}
		}
		if found && extra != nil {
			grow(*extra)
		}
		return h, found
	}
	var out []span
	search, hasSearch := hull(searchLayers, nil)
	if hasSearch {
		search.Req, search.Layer, search.Name, search.Source = req, layerSearch, "search.search", "derived"
		out = append(out, search)
	}
	var extra *span
	if hasSearch {
		extra = &search
	}
	if core, ok := hull(coreLayers, extra); ok {
		core.Req, core.Layer, core.Name, core.Source = req, layerCore, "core.ask", "derived"
		out = append(out, core)
	}
	return out
}

// selfTimes sweeps one request's spans and returns the nanoseconds each
// layer held as the deepest open layer. Spans are clipped to the root.
func selfTimes(root span, spans []span) map[string]int64 {
	type event struct {
		t     int64
		depth int
		delta int
	}
	events := make([]event, 0, 2*len(spans)+2)
	push := func(s span) {
		d, ok := layerDepth[s.Layer]
		if !ok {
			return
		}
		start, end := s.Start, s.End
		if start < root.Start {
			start = root.Start
		}
		if end > root.End {
			end = root.End
		}
		if end <= start {
			return
		}
		events = append(events, event{start, d, +1}, event{end, d, -1})
	}
	push(root)
	for _, s := range spans {
		push(s)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	open := make([]int, len(layerOrder))
	self := make(map[string]int64)
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			open[events[i].depth] += events[i].delta
			i++
		}
		if i == len(events) {
			break
		}
		for d := len(open) - 1; d >= 0; d-- {
			if open[d] > 0 {
				self[layerOrder[d]] += events[i].t - t
				break
			}
		}
	}
	return self
}

// buildLedger groups spans by request and summarises every request that
// has a root span (the traced ones).
func buildLedger(spans []span) ledger {
	byReq := make(map[int64][]span)
	roots := make(map[int64]span)
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		if s.Name == rootSpanName {
			roots[s.Req] = s
			continue
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	reqs := make([]int64, 0, len(roots))
	for id := range roots {
		reqs = append(reqs, id)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })

	self := make(map[string][]float64)
	total := make(map[string][]float64)
	calls := make(map[string]float64)
	work := make(map[string]float64)
	var coverage []float64
	for _, id := range reqs {
		root := roots[id]
		ss := append(byReq[id], deriveSpans(id, byReq[id])...)
		st := selfTimes(root, ss)
		var sum int64
		for _, l := range layerOrder {
			self[l] = append(self[l], float64(st[l])/1e6)
			sum += st[l]
		}
		if d := root.End - root.Start; d > 0 {
			coverage = append(coverage, 100*float64(sum)/float64(d))
		}
		reqTotal := make(map[string]float64)
		for _, s := range ss {
			d := float64(s.End-s.Start) / 1e6
			reqTotal[s.Name] += d
			calls[s.Name]++
			work[s.Name] += float64(s.N)
		}
		for name, d := range reqTotal {
			total[name] = append(total[name], d)
		}
	}
	n := len(reqs)
	lg := ledger{
		Requests: n,
		Self:     make(map[string]dist), Total: make(map[string]dist),
		Calls: make(map[string]float64), N: make(map[string]float64),
		CoveragePct: median(coverage),
	}
	for l, xs := range self {
		lg.Self[l] = distOf(xs)
	}
	for name, xs := range total {
		// A request without this span spent 0 on it: pad, so the median is
		// over all traced requests and not only those that made the call.
		for len(xs) < n {
			xs = append(xs, 0)
		}
		lg.Total[name] = distOf(xs)
		lg.Calls[name] = calls[name] / float64(n)
		lg.N[name] = work[name] / float64(n)
	}
	return lg
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
