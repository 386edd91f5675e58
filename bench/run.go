package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"uniask/internal/index"
	"uniask/internal/kb"
	"uniask/internal/search"
)

// runConfig is one run: one workload, traced or not, from one seed.
type runConfig struct {
	workload workloadSpec
	traced   bool
	seed     int64
	seconds  float64 // measured window
	docs     int     // corpus size
	clients  int     // closed-loop connections on an untraced run
	outDir   string  // where trace_<workload>.jsonl goes
}

// maxWarmup is run before the window and thrown away, so caches, connection
// pools and the Go heap are in their steady state. Windows shorter than
// three times this (development, tests) warm up for a third of the window.
const maxWarmup = 5 * time.Second

// setupRepeats is how many times an untraced run sets its topology up; the
// median is setup_s and the last one is served.
const setupRepeats = 3

// minFlatnessWindow is the shortest window whose halves each hold a whole
// compaction cycle of ask_ingest.
const minFlatnessWindow = 10 * time.Second

// tailPercentile is the highest percentile with ten samples beyond it on
// every workload's pinned window; a run with fewer samples fails.
const (
	tailPercentile = 90
	tailName       = "p90_ms"
	minTailCount   = 100
)

// runResult is everything one run measured. Metrics holds exactly the
// contract's metrics for the run's mode (end-to-end when untraced,
// per-layer when traced); Extra holds what is printed beside them.
type runResult struct {
	Workload string  `json:"workload"`
	Topology string  `json:"topology"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Docs     int     `json:"docs"`
	Clients  int     `json:"clients"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	Metrics map[string]metric `json:"metrics"`
	Extra   map[string]metric `json:"extra,omitempty"`
	Gate    *gateResult       `json:"gate,omitempty"`
	Ledger  *ledger           `json:"ledger,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// phase is what a set of closed-loop clients did in one time window.
type phase struct {
	start     time.Time
	dur       time.Duration
	attempted int
	failed    int
	ops       []opResult // successful operations that ended inside the window
	tracedOp  []bool     // parallel to ops on a traced phase
	errs      []string   // first few failures, for the report
}

// latencies returns, per operation, the whole latency and the time to the
// first usable content, in milliseconds.
func (p *phase) latencies() (lat, first []float64) {
	for _, op := range p.ops {
		lat = append(lat, ms(op.end.Sub(op.start)))
		first = append(first, ms(op.first.Sub(op.start)))
	}
	return lat, first
}

// tracing switches the recorder per operation on a traced phase: groups of
// `stride` consecutive operations alternate between recorded and not, so
// both kinds see the same store, cache and heap state.
type tracing struct {
	rec    *recorder
	stride int
	nextID int64
}

// runPhase drives drv from every client until dur has passed. An operation
// that ends after the window is not counted at all.
func runPhase(ctx context.Context, clients []*apiClient, drv driver, dur time.Duration, tr *tracing) phase {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]phase, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *apiClient) {
			defer wg.Done()
			p := &per[i]
			fail := func(err error) {
				p.attempted++
				p.failed++
				if len(p.errs) < 3 {
					p.errs = append(p.errs, err.Error())
				}
			}
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				if err := drv.prepare(ctx, c, i); err != nil {
					fail(err)
					time.Sleep(time.Millisecond) // a dead server must not spin the client
					continue
				}
				traced := false
				if tr != nil {
					traced = (k/tr.stride)%2 == 1
					tr.nextID++
					tr.rec.cur.Store(tr.nextID)
					tr.rec.on.Store(traced)
				}
				op := drv.next(ctx, c, i)
				if tr != nil {
					tr.rec.on.Store(false)
				}
				if op.end.After(deadline) {
					break
				}
				if op.err != nil {
					fail(op.err)
					continue
				}
				if traced {
					tr.rec.addSpan(span{Req: tr.nextID, Layer: layerTransport, Name: rootSpanName,
						Start: tr.rec.since(op.start), End: tr.rec.since(op.end)})
				}
				p.attempted++
				p.ops = append(p.ops, op)
				p.tracedOp = append(p.tracedOp, traced)
			}
		}(i, c)
	}
	wg.Wait()
	out := phase{start: start, dur: dur}
	for _, p := range per {
		out.attempted += p.attempted
		out.failed += p.failed
		out.ops = append(out.ops, p.ops...)
		out.tracedOp = append(out.tracedOp, p.tracedOp...)
		out.errs = append(out.errs, p.errs...)
	}
	return out
}

// storeWatch samples the segment gauges while a phase runs.
type storeWatch struct {
	stop    chan struct{}
	done    chan struct{}
	backlog []int
}

func watchStores(t *topology) *storeWatch {
	w := &storeWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.backlog = append(w.backlog, t.storeTotals().Backlog)
			}
		}
	}()
	return w
}

// halt stops sampling and returns the largest backlog seen in the first
// and in the second half of the samples.
func (w *storeWatch) halt() (first, second int) {
	close(w.stop)
	<-w.done
	for i, b := range w.backlog {
		if i < len(w.backlog)/2 {
			first = max(first, b)
		} else {
			second = max(second, b)
		}
	}
	return first, second
}

// counters is the set of program-published counters read around a phase.
type counters struct {
	cache search.CacheStats
	store index.SegmentStats
	key   uint64
	mem   runtime.MemStats
	opens int // endpoint breakers not closed
}

func readCounters(t *topology, withMem bool) counters {
	var c counters
	c.cache, _ = t.eng.CacheStats()
	c.store = t.storeTotals()
	c.key = t.eng.Index.StatsKey()
	for _, b := range t.eng.Breakers() {
		if b.State != "closed" {
			c.opens++
		}
	}
	if withMem {
		runtime.ReadMemStats(&c.mem)
	}
	return c
}

func hitRatio(before, after search.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// newDriver generates the workload's traffic from the seed. The cold driver
// is also returned as itself: the ask_ingest writer tells it what it removed.
func newDriver(workload string, corpus *kb.Corpus, seed int64, clients int) (driver, *coldDriver, error) {
	switch workload {
	case "ask_cold", "ask_ingest":
		d := &coldDriver{pool: newColdPool(corpus, seed)}
		return d, d, nil
	case "search_hot":
		d, err := newHotDriver(corpus, seed, clients)
		return d, nil, err
	}
	pool, err := newSessionPool(corpus, seed)
	return &chatDriver{pool: pool, state: make([]chatState, clients)}, nil, err
}

// setUp builds the workload's topology `repeats` times, each from corpus
// generation to a quiescent store behind a listening server, and returns the
// last build with the time every build took. The earlier builds are torn
// down idle, so nothing of them runs on.
func setUp(ctx context.Context, cfg runConfig, repeats int, rec *recorder) (*topology, []float64, error) {
	var seconds []float64
	for i := 1; ; i++ {
		start := time.Now()
		corpus := kb.Generate(kb.GenConfig{Docs: cfg.docs, Seed: corpusSeed})
		topo, err := buildTopology(ctx, cfg.workload.topology, corpus, rec)
		if err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
		if i == repeats {
			return topo, seconds, nil
		}
		topo.close()
	}
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// measurement is one warm-up and one measured window on a topology.
type measurement struct {
	ph       phase
	passes   []passRecord // writer passes that fell inside the window
	before   counters
	after    counters
	backlog  [2]int // largest compaction backlog in each half of the window
	hitRatio float64
	drain    time.Duration // traced ask_ingest: writer stopped -> stores quiescent
	problems []string
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// measure warms up, measures one window and checks that the window measured
// what the workload's name says.
func measure(ctx context.Context, cfg runConfig, topo *topology, clients []*apiClient, drv driver, cold *coldDriver, rec *recorder) measurement {
	var m measurement
	window := time.Duration(cfg.seconds * float64(time.Second))

	var (
		writer     *kbWriter
		passes     []passRecord
		stopWriter = func() {}
	)
	if cfg.workload.name == "ask_ingest" {
		writer = newKBWriter(topo, cfg.seed, func(page string, at time.Time) { cold.removedAt.Store(page, at) })
		wctx, cancel := context.WithCancel(ctx)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			passes = pace(wctx, time.Now(), ingestInterval, writer.pass)
		}()
		stopWriter = func() { cancel(); <-finished }
	}

	runPhase(ctx, clients, drv, min(maxWarmup, window/3), nil)

	var tr *tracing
	if cfg.traced {
		tr = &tracing{rec: rec, stride: 1}
		if cfg.workload.name == "chat_sharded" {
			tr.stride = turnsPerSession // whole conversations are traced or not
		}
		rec.bg.Store(true)
	}
	m.before = readCounters(topo, cfg.traced)
	watch := watchStores(topo)
	m.ph = runPhase(ctx, clients, drv, window, tr)
	windowEnd := time.Now()
	m.backlog[0], m.backlog[1] = watch.halt()
	m.after = readCounters(topo, cfg.traced)
	if rec != nil {
		rec.bg.Store(false)
	}
	stopWriter()
	if writer != nil && cfg.traced {
		// How long compaction goes on after ingest has returned. Only the
		// traced run can afford the wait.
		stopped := time.Now()
		topo.quiesce()
		m.drain = time.Since(stopped)
	}

	for _, e := range m.ph.errs {
		m.problem("operation failed: %s", e)
	}
	if len(m.ph.ops) == 0 {
		m.problem("no operation completed inside the window")
	}

	// Workload validity: the window measured what the workload's name says.
	m.hitRatio = hitRatio(m.before.cache, m.after.cache)
	switch cfg.workload.name {
	case "search_hot":
		if m.hitRatio < 0.90 {
			m.problem("search_hot is not hot: cache hit ratio %.3f < 0.90", m.hitRatio)
		}
	case "ask_cold", "ask_ingest":
		if m.hitRatio > 0.02 {
			m.problem("%s is not cold: cache hit ratio %.3f > 0.02", cfg.workload.name, m.hitRatio)
		}
	}
	if compactions := m.after.store.Compactions - m.before.store.Compactions; writer == nil && compactions != 0 {
		m.problem("read-only workload saw %d compactions inside the window: store was not quiescent", compactions)
	}
	if writer == nil {
		return m
	}

	for _, p := range passes {
		if p.err != nil {
			m.problem("ingest pass failed: %v", p.err)
		}
		if !p.due.Before(m.ph.start) && p.end.Before(windowEnd) {
			m.passes = append(m.passes, p)
		}
	}
	if len(m.passes) == 0 {
		m.problem("no ingest pass completed inside the window")
	}
	var late []float64
	for _, p := range m.passes {
		late = append(late, ms(p.lateness()))
	}
	if l := percentile(sortedCopy(late), 95); l > ms(maxLatenessP95) {
		m.problem("writer ran late: p95 lateness %.1f ms > %.0f ms, the loop was not open", l, ms(maxLatenessP95))
	}
	// Flat means the second half of the window did not need a deeper backlog
	// than the first; one segment of slack absorbs where the halves happen to
	// cut the compaction cycle. One cycle (a merge of the whole store, then
	// the small merges that piled up behind it) takes about five seconds, so
	// halves shorter than that compare phases of a cycle, not cycles.
	if m.ph.dur >= minFlatnessWindow && m.backlog[1] > m.backlog[0]+1 {
		m.problem("compaction backlog grows at this write rate: max %d in the first half, %d in the second", m.backlog[0], m.backlog[1])
	}
	m.problems = append(m.problems, writer.verify(ctx, clients[0])...)
	return m
}

// runOne performs one run: set-up, the quality gate (untraced), warm-up,
// one window, and the metrics of the run's mode.
func runOne(ctx context.Context, cfg runConfig) (runResult, error) {
	res := runResult{
		Workload: cfg.workload.name, Topology: cfg.workload.topology, Traced: cfg.traced,
		Seed: cfg.seed, Seconds: cfg.seconds, Docs: cfg.docs, Clients: cfg.clients,
		Metrics: make(map[string]metric), Extra: make(map[string]metric),
	}
	var rec *recorder
	repeats := setupRepeats
	if cfg.traced {
		// One request in flight at a time, so that spans can be attributed
		// to requests by when they happen.
		rec, repeats, res.Clients = newRecorder(), 1, 1
	}
	topo, setups, err := setUp(ctx, cfg, repeats, rec)
	if err != nil {
		return res, err
	}
	// The stores may still be merging what ask_ingest wrote; the next run in
	// this process must not be timed beside that.
	defer topo.drain()
	defer topo.close()
	heap := heapMB()

	clients := make([]*apiClient, res.Clients)
	for i := range clients {
		clients[i] = newAPIClient(topo.baseURL, rec)
		defer clients[i].close()
		if err := clients[i].login(ctx, fmt.Sprintf("bench%d", i)); err != nil {
			return res, err
		}
	}
	if !cfg.traced {
		gate, err := runGate(ctx, clients, gateSample(topo.corpus))
		if err != nil {
			return res, err
		}
		res.Gate = &gate
		if want, pinned := pinnedDigest[cfg.workload.topology]; pinned && cfg.docs == pinnedDocs && gate.Digest != want {
			res.problem("%s rankings changed: gate digest %s, pinned %s", cfg.workload.topology, gate.Digest, want)
		}
	}
	drv, cold, err := newDriver(cfg.workload.name, topo.corpus, cfg.seed, len(clients))
	if err != nil {
		return res, err
	}

	m := measure(ctx, cfg, topo, clients, drv, cold, rec)
	res.Attempted, res.Failed = m.ph.attempted, m.ph.failed
	res.Problems = append(res.Problems, m.problems...)
	if cold != nil && cold.pool.exhausted() {
		res.problem("cold question pool (%d) wrapped: questions were repeated", len(cold.pool.questions))
	}
	if chat, ok := drv.(*chatDriver); ok && chat.pool.exhausted() {
		res.problem("session pool (%d) wrapped: conversations were repeated", len(chat.pool.sessions))
	}

	if cfg.traced {
		spans := rec.take()
		lg := buildLedger(spans)
		res.Ledger = &lg
		layerMetrics(&res, m, lg, spans)
		if cfg.outDir != "" {
			if err := writeSpans(filepath.Join(cfg.outDir, "trace_"+cfg.workload.name+".jsonl"), spans); err != nil {
				return res, err
			}
		}
	} else {
		endToEndMetrics(&res, setups, heap, m)
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1 // the contract wants a positive count even for an empty run
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(defs, name)}
}

func (r *runResult) extra(name, unit string, v float64) {
	r.Extra[name] = metric{Value: v, Unit: unit}
}

// endToEndMetrics fills the untraced run's metrics.
func endToEndMetrics(res *runResult, setups []float64, heap float64, m measurement) {
	lat, first := m.ph.latencies()
	sl, sf := sortedCopy(lat), sortedCopy(first)
	if len(lat) < minTailCount {
		res.problem("only %d samples: p%d needs %d (ten beyond it)", len(lat), tailPercentile, minTailCount)
	}
	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "heap_mb", heap)
	res.set(endToEnd, "qps", float64(len(lat))/m.ph.dur.Seconds())
	res.set(endToEnd, tailName, percentile(sl, tailPercentile))
	res.set(endToEnd, "hit_at_4", res.Gate.HitAt4)

	res.extra("samples", "count", float64(len(lat)))
	res.extra("p50_ms", "ms", percentile(sl, 50))
	// Time to first content only differs from the whole latency on streamed
	// turns (chat_sharded).
	res.extra("ttfc_p50_ms", "ms", percentile(sf, 50))
	res.extra(fmt.Sprintf("ttfc_p%d_ms", tailPercentile), "ms", percentile(sf, tailPercentile))
	res.extra("fail_ratio", "ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.extra("mrr", "ratio", res.Gate.MRR)
	res.extra("cache_hit_ratio", "ratio", m.hitRatio)
	for i, s := range setups {
		res.extra(fmt.Sprintf("setup_%d_s", i+1), "s", s)
	}
	if len(m.passes) > 0 {
		var pl, late []float64
		for _, p := range m.passes {
			pl = append(pl, ms(p.latency()))
			late = append(late, ms(p.lateness()))
		}
		res.extra("ingest_passes", "count", float64(len(m.passes)))
		res.extra("ingest_pass_p50_ms", "ms", median(pl))
		res.extra("ingest_lateness_p95_ms", "ms", percentile(sortedCopy(late), 95))
		res.extra("compactions", "count", float64(m.after.store.Compactions-m.before.store.Compactions))
		res.extra("backlog_max", "count", float64(max(m.backlog[0], m.backlog[1])))
	}
}

// layerMetrics fills the traced run's metrics from the ledger, the
// program's own counters and the phase's operations.
func layerMetrics(res *runResult, t measurement, lg ledger, spans []span) {
	ph, passes, before, after := t.ph, t.passes, t.before, t.after
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	for _, d := range perLayer {
		set(d.Name, 0)
	}
	if lg.Requests == 0 {
		res.problem("traced run recorded no request")
		return
	}
	self := func(layer string) float64 { return lg.Self[layer].P50 }
	// The Searcher.Index seam is the local store on single and the shard
	// facade on remote4; its spans carry the seam's name either way.
	set("transport.self_ms", self(layerTransport))
	set("server.self_ms", self(layerServer))
	set("server.bytes_out_per_req", lg.N["server.handler"])
	set("core.self_ms", self(layerCore))
	set("search.self_ms", self(layerSearch))
	set("search.cache_hit_ratio", t.hitRatio)
	set("search.cache_rotations", float64(after.key-before.key))
	set("embedding.ms", lg.Total["embedding.embed"].P50)
	set("embedding.calls_per_req", lg.Calls["embedding.embed"])
	set("index.self_ms", self(layerIndex))
	set("index.text_ms", lg.Total["index.text"].P50)
	set("index.text_calls_per_req", lg.Calls["index.text"])
	set("index.vector_ms", lg.Total["index.vector"].P50)
	set("index.vector_calls_per_req", lg.Calls["index.vector"])
	set("index.doc_fetch_ms", lg.Total["index.doc_fetch"].P50)
	set("index.doc_fetch_calls_per_req", lg.Calls["index.doc_fetch"])
	set("fusion.ms", lg.Total["stage.fusion"].P50)
	set("rerank.ms", lg.Total["stage.rerank"].P50)
	set("rerank.self_ms", self(layerRerank))
	set("rerank.candidates_per_req", lg.N["stage.rerank"])
	set("generation.ms", lg.Total["stage.generation"].P50)
	set("generation.self_ms", self(layerGeneration))
	set("llm.ms", lg.Total["llm.complete"].P50)
	set("llm.calls_per_req", lg.Calls["llm.complete"])
	set("llm.prompt_tokens_per_req", lg.N["llm.complete"])
	set("guardrails.ms", self(layerGuardrails))
	set("session.rewrite_ms", lg.Total["stage.rewrite"].P50)
	set("sse.self_ms", self(layerSSE))
	set("shard.self_ms", self(layerShard))
	set("shard.shards_down_per_req", lg.N["index.text"]+lg.N["index.vector"])
	set("remote.self_ms", self(layerRemote))
	var rpcs, rpcFailures float64
	var rpcMS []float64
	for _, s := range spans {
		if s.Layer == layerRemote && s.Req != 0 {
			rpcs++
			rpcMS = append(rpcMS, float64(s.End-s.Start)/1e6)
			if s.Err {
				rpcFailures++
			}
		}
	}
	set("remote.rpc_ms", median(rpcMS))
	set("remote.rpcs_per_req", rpcs/float64(lg.Requests))
	set("remote.failures_per_req", rpcFailures/float64(lg.Requests))
	set("remote.breaker_opens", float64(after.opens))

	var firstToken, events, history, tracedLat, plainLat []float64
	for i, op := range ph.ops {
		l := ms(op.end.Sub(op.start))
		if !ph.tracedOp[i] {
			plainLat = append(plainLat, l)
			continue
		}
		tracedLat = append(tracedLat, l)
		if op.events > 0 {
			events = append(events, float64(op.events))
			history = append(history, float64(op.historyTurns))
		}
		if !op.firstToken.IsZero() {
			firstToken = append(firstToken, ms(op.firstToken.Sub(op.start)))
		}
	}
	set("session.history_turns_per_req", mean(history))
	set("sse.events_per_turn", mean(events))
	set("sse.first_token_ms", median(firstToken))
	if p := median(plainLat); p > 0 {
		set("trace_overhead_pct", 100*(median(tracedLat)-p)/p)
	}
	set("ledger.coverage_pct", lg.CoveragePct)

	if len(passes) > 0 {
		var pl, late, pages []float64
		for _, p := range passes {
			pl = append(pl, ms(p.latency()))
			late = append(late, ms(p.lateness()))
			pages = append(pages, float64(p.changed))
		}
		set("ingest.pass_ms", median(pl))
		set("ingest.pages_per_pass", mean(pages))
		set("ingest.lateness_p95_ms", percentile(sortedCopy(late), 95))
		set("ingest.pass_self_ms", median(passSelfTimes(spans)))
	}
	set("index.seals", float64(after.store.Seals-before.store.Seals))
	set("index.compactions", float64(after.store.Compactions-before.store.Compactions))
	set("index.segments_end", float64(after.store.Segments))
	set("index.backlog_max", float64(max(t.backlog[0], t.backlog[1])))
	set("index.compaction_drain_ms", ms(t.drain))

	n := float64(len(ph.ops))
	if n > 0 {
		set("proc.allocs_per_req", float64(after.mem.Mallocs-before.mem.Mallocs)/n)
		set("proc.alloc_kb_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/n)
	}
	set("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	set("proc.heap_growth_mb", (float64(after.mem.HeapAlloc)-float64(before.mem.HeapAlloc))/(1<<20))

	res.extra("traced_requests", "count", float64(lg.Requests))
	res.extra("untraced_requests", "count", float64(len(plainLat)))
	res.extra("traced_p50_ms", "ms", median(tracedLat))
	res.extra("untraced_p50_ms", "ms", median(plainLat))
	if lg.CoveragePct < 95 || lg.CoveragePct > 105 {
		res.problem("ledger does not add up: layer self times cover %.1f%% of the client latency", lg.CoveragePct)
	}
}

// passSelfTimes is, per recorded poller pass, the pass minus the index
// writes inside it: extraction, chunking and embedding.
func passSelfTimes(spans []span) []float64 {
	var passes, writes []span
	for _, s := range spans {
		switch s.Name {
		case "ingest.pass":
			passes = append(passes, s)
		case "index.write":
			writes = append(writes, s)
		}
	}
	var out []float64
	for _, p := range passes {
		self := p.End - p.Start
		for _, w := range writes {
			if w.Start >= p.Start && w.End <= p.End {
				self -= w.End - w.Start
			}
		}
		out = append(out, float64(self)/1e6)
	}
	return out
}
