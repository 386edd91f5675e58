package trace

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"uniask/internal/pipeline"
)

// endRequest finishes a request and returns its stored trace.
func endRequest(t *testing.T, tr *Tracer, req *Request) *TraceData {
	t.Helper()
	req.End()
	td, ok := tr.Store().Get(req.TraceID())
	if !ok {
		t.Fatalf("trace %s not stored", req.TraceID())
	}
	return td
}

func TestStartRequestSampledRecordsSpans(t *testing.T) {
	tr := New(Config{})
	ctx, req := tr.StartRequest(context.Background(), "ask")
	if req.Root() == nil {
		t.Fatal("default config must sample every request")
	}
	if req.TraceID() == "" {
		t.Fatal("sampled request must have a trace id")
	}
	if got := ContextID(ctx); got != req.TraceID() {
		t.Fatalf("ContextID = %q, want %q", got, req.TraceID())
	}

	cctx, child := Start(ctx, "retrieval", A("mode", "hybrid"))
	if child == nil {
		t.Fatal("Start on a traced ctx must return a live span")
	}
	_, grand := Start(cctx, "shard.search", A("shard", "3"))
	grand.End()
	child.End()

	td := endRequest(t, tr, req)
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	if td.Spans[0].Name != "ask" || td.Spans[0].Parent != 0 {
		t.Fatalf("root = %+v, want name ask parent 0", td.Spans[0])
	}
	if td.Spans[1].Parent != td.Spans[0].SpanID {
		t.Fatal("child must parent to root")
	}
	if td.Spans[2].Parent != td.Spans[1].SpanID {
		t.Fatal("grandchild must parent to child")
	}
	if td.Spans[1].Duration <= 0 || td.Spans[0].Duration <= 0 {
		t.Fatal("ended spans must have positive durations")
	}

	tree := td.Tree()
	if len(tree) != 1 || tree[0].Name != "ask" {
		t.Fatalf("tree roots = %d, want single ask root", len(tree))
	}
	if len(tree[0].Children) != 1 || len(tree[0].Children[0].Children) != 1 {
		t.Fatal("tree must nest ask > retrieval > shard.search")
	}
}

func TestStartRequestSampledOut(t *testing.T) {
	tr := New(Config{SampleRate: -1}) // trace nothing
	base := context.Background()
	ctx, req := tr.StartRequest(base, "ask")
	if ctx != base {
		t.Fatal("sampled-out request must return ctx unchanged")
	}
	if req.TraceID() == "" {
		t.Fatal("sampled-out request still needs an id for the header")
	}
	if req.Root() != nil {
		t.Fatal("Root() must be nil when unsampled")
	}
	// All downstream instrumentation must be a no-op, not a panic.
	sctx, sp := Start(ctx, "retrieval")
	if sp != nil || sctx != base {
		t.Fatal("Start on untraced ctx must be a no-op")
	}
	sp.SetAttr("k", "v")
	sp.SetStatus(StatusError)
	sp.SetError(errors.New("x"))
	sp.AddEvent("retry")
	sp.End()
	AddEvent(ctx, "retry")
	if Enabled(ctx) {
		t.Fatal("Enabled must be false")
	}
	req.End()
	if n := tr.Store().Len(); n != 0 {
		t.Fatalf("store holds %d traces, want 0", n)
	}
}

func TestNilTracerAndNilRequest(t *testing.T) {
	var tr *Tracer
	base := context.Background()
	ctx, req := tr.StartRequest(base, "ask")
	if ctx != base || req != nil {
		t.Fatal("nil tracer must return ctx unchanged and a nil request")
	}
	if req.TraceID() != "" || req.Root() != nil {
		t.Fatal("nil request accessors must be zero-valued")
	}
	req.End() // must not panic
	if tr.Store() != nil {
		t.Fatal("nil tracer store must be nil")
	}
	if _, ok := tr.Store().Get("x"); ok {
		t.Fatal("nil store Get must miss")
	}
	if tr.Store().Len() != 0 || tr.Store().List(nil, 0) != nil {
		t.Fatal("nil store must answer empty")
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	count := func(seed int64) (sampled int, ids []string) {
		tr := New(Config{SampleRate: 0.5, Seed: seed})
		for i := 0; i < 200; i++ {
			_, req := tr.StartRequest(context.Background(), "ask")
			ids = append(ids, req.TraceID())
			if req.Root() != nil {
				sampled++
			}
		}
		return sampled, ids
	}
	n1, ids1 := count(7)
	n2, ids2 := count(7)
	if n1 != n2 {
		t.Fatalf("same seed must sample identically: %d vs %d", n1, n2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("trace ids must be deterministic per seed: %q vs %q", ids1[i], ids2[i])
		}
	}
	if n1 == 0 || n1 == 200 {
		t.Fatalf("rate 0.5 sampled %d/200 — head sampling is not discriminating", n1)
	}
}

func TestTailRetentionReasons(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Nanosecond}) // everything counts as slow
	_, req := tr.StartRequest(context.Background(), "ask")
	time.Sleep(time.Microsecond)
	td := endRequest(t, tr, req)
	if td.Retained != "slow" {
		t.Fatalf("Retained = %q, want slow", td.Retained)
	}

	tr = New(Config{})
	_, req = tr.StartRequest(context.Background(), "ask")
	req.Root().SetError(errors.New("boom"))
	td = endRequest(t, tr, req)
	if td.Retained != "error" || td.Status != StatusError {
		t.Fatalf("got (%s, %v), want (error, StatusError)", td.Retained, td.Status)
	}

	_, req = tr.StartRequest(context.Background(), "ask")
	req.Root().SetStatus(StatusDegraded)
	td = endRequest(t, tr, req)
	if td.Retained != "degraded" || td.Status != StatusDegraded {
		t.Fatalf("got (%s, %v), want (degraded, StatusDegraded)", td.Retained, td.Status)
	}

	_, req = tr.StartRequest(context.Background(), "ask")
	td = endRequest(t, tr, req)
	if td.Retained != "sampled" {
		t.Fatalf("Retained = %q, want sampled", td.Retained)
	}
}

func TestProtectedRingSurvivesHealthyFlood(t *testing.T) {
	// Tiny store: three ordinary + three protected slots per lock shard, so
	// the few error traces below cannot collide each other out of one shard.
	tr := New(Config{Capacity: 96})

	var errIDs []string
	for i := 0; i < 3; i++ {
		_, req := tr.StartRequest(context.Background(), "ask")
		req.Root().SetError(fmt.Errorf("failure %d", i))
		req.End()
		errIDs = append(errIDs, req.TraceID())
	}
	// Flood with healthy traffic: orders of magnitude more than capacity.
	for i := 0; i < 2000; i++ {
		_, req := tr.StartRequest(context.Background(), "ask")
		req.End()
	}
	for _, id := range errIDs {
		td, ok := tr.Store().Get(id)
		if !ok {
			t.Fatalf("error trace %s evicted by healthy flood", id)
		}
		if td.Retained != "error" {
			t.Fatalf("trace %s retained as %q, want error", id, td.Retained)
		}
	}
	// The store stays strictly bounded: 16 lock shards x 2 rings x 3 slots.
	if n := tr.Store().Len(); n > 96 {
		t.Fatalf("store holds %d traces, capacity 96", n)
	}
}

func TestStoreListFilterAndOrder(t *testing.T) {
	tr := New(Config{})
	var last string
	for i := 0; i < 5; i++ {
		_, req := tr.StartRequest(context.Background(), "ask")
		if i == 2 {
			req.Root().SetError(errors.New("x"))
		}
		req.End()
		last = req.TraceID()
		time.Sleep(time.Millisecond) // distinct Start stamps for the ordering check
	}
	all := tr.Store().List(nil, 0)
	if len(all) != 5 {
		t.Fatalf("List(nil) = %d traces, want 5", len(all))
	}
	if all[0].TraceID != last {
		t.Fatal("List must return newest first")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Start.After(all[i-1].Start) {
			t.Fatal("List order must be non-increasing by Start")
		}
	}
	errs := tr.Store().List(func(td *TraceData) bool { return td.Status == StatusError }, 0)
	if len(errs) != 1 {
		t.Fatalf("error filter matched %d, want 1", len(errs))
	}
	if got := tr.Store().List(nil, 2); len(got) != 2 {
		t.Fatalf("limit 2 returned %d", len(got))
	}
}

func TestSpanAttrsEventsAndStatus(t *testing.T) {
	tr := New(Config{})
	ctx, req := tr.StartRequest(context.Background(), "ask")
	_, sp := Start(ctx, "llm.complete")
	sp.SetAttr("model", "sim")
	sp.SetAttr("model", "sim-2") // overwrite, not append
	sp.AddEvent("retry", A("attempt", "1"), A("error", "rate limited"))
	sp.AddEvent("retry", A("attempt", "2"))
	sp.SetError(errors.New("exhausted"))
	sp.End()
	td := endRequest(t, tr, req)

	got, ok := td.SpanByName("llm.complete")
	if !ok {
		t.Fatal("llm.complete span missing")
	}
	if len(got.Attrs) != 1 || got.Attrs[0].Value != "sim-2" {
		t.Fatalf("attrs = %+v, want single model=sim-2", got.Attrs)
	}
	if len(got.Events) != 2 || got.Events[0].Name != "retry" {
		t.Fatalf("events = %+v, want two retry events", got.Events)
	}
	if got.Status != StatusError || got.Error != "exhausted" {
		t.Fatalf("status = %v error = %q", got.Status, got.Error)
	}
}

func TestConcurrentSpanCreation(t *testing.T) {
	tr := New(Config{})
	ctx, req := tr.StartRequest(context.Background(), "ask")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx, "shard.search", A("shard", strconv.Itoa(i)))
			sp.AddEvent("probe")
			sp.End()
		}(i)
	}
	wg.Wait()
	td := endRequest(t, tr, req)
	if len(td.Spans) != 33 {
		t.Fatalf("got %d spans, want 33", len(td.Spans))
	}
	seen := map[uint64]bool{}
	for _, sp := range td.Spans {
		if seen[sp.SpanID] {
			t.Fatalf("duplicate span id %d", sp.SpanID)
		}
		seen[sp.SpanID] = true
	}
}

func TestStageObserverBuildsPostHocSpans(t *testing.T) {
	tr := New(Config{})
	ctx, req := tr.StartRequest(context.Background(), "ask")
	obs := Stages()

	err := pipeline.Run(ctx, obs, pipeline.StageRetrieval, 7, func(context.Context) (int, error) {
		time.Sleep(time.Millisecond)
		return 4, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A degraded report (StageDegraded with a cause) becomes a degraded span.
	pipeline.Observe(ctx, obs, pipeline.StageInfo{
		Stage: pipeline.StageDegraded, In: 1, Err: errors.New("search: shed vector: boom"),
	})
	td := endRequest(t, tr, req)

	st, ok := td.SpanByName(pipeline.StageRetrieval)
	if !ok {
		t.Fatal("retrieval stage span missing")
	}
	if st.Parent != 1 {
		t.Fatal("stage span must parent to the root")
	}
	if st.Duration < time.Millisecond {
		t.Fatalf("stage span duration %v, want >= 1ms", st.Duration)
	}
	wantIn, wantOut := false, false
	for _, a := range st.Attrs {
		wantIn = wantIn || (a.Key == "in" && a.Value == "7")
		wantOut = wantOut || (a.Key == "out" && a.Value == "4")
	}
	if !wantIn || !wantOut {
		t.Fatalf("stage attrs = %+v, want in=7 out=4", st.Attrs)
	}

	dg, ok := td.SpanByName(pipeline.StageDegraded)
	if !ok {
		t.Fatal("degraded stage span missing")
	}
	if dg.Status != StatusDegraded {
		t.Fatalf("degraded span status = %v, want StatusDegraded", dg.Status)
	}

	// On an untraced context the observer must not record anything.
	pipeline.Observe(context.Background(), obs, pipeline.StageInfo{Stage: "x"})
}

func TestStatusJSONAndParse(t *testing.T) {
	for _, tc := range []struct {
		st   Status
		want string
	}{{StatusOK, "ok"}, {StatusError, "error"}, {StatusDegraded, "degraded"}} {
		b, err := tc.st.MarshalJSON()
		if err != nil || string(b) != `"`+tc.want+`"` {
			t.Fatalf("MarshalJSON(%v) = %s, %v", tc.st, b, err)
		}
		back, ok := ParseStatus(tc.want)
		if !ok || back != tc.st {
			t.Fatalf("ParseStatus(%q) = %v, %v", tc.want, back, ok)
		}
	}
	if _, ok := ParseStatus("bogus"); ok {
		t.Fatal("ParseStatus must reject unknown strings")
	}
}
