package monitor

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"uniask/internal/pipeline"
	"uniask/internal/trace"
)

func TestSnapshotBasics(t *testing.T) {
	m := New()
	m.RecordQuery("alice", 100*time.Millisecond, "none", false)
	m.RecordQuery("bob", 300*time.Millisecond, "citation", false)
	m.RecordQuery("alice", 200*time.Millisecond, "", true)
	m.RecordFeedback(true)
	m.RecordFeedback(false)

	d := m.Snapshot()
	if d.Users != 2 {
		t.Fatalf("users = %d", d.Users)
	}
	if d.Queries != 3 {
		t.Fatalf("queries = %d", d.Queries)
	}
	if d.FailedRequests != 1 {
		t.Fatalf("failed = %d", d.FailedRequests)
	}
	if d.GuardrailsTriggered != 1 || d.PerGuardrail["citation"] != 1 {
		t.Fatalf("guardrails = %+v", d.PerGuardrail)
	}
	if d.Feedbacks != 2 || d.PositiveFeedbacks != 1 {
		t.Fatalf("feedbacks = %d/%d", d.Feedbacks, d.PositiveFeedbacks)
	}
	if d.AvgResponse != 200*time.Millisecond {
		t.Fatalf("avg response = %v", d.AvgResponse)
	}
}

func TestNoneGuardrailNotCounted(t *testing.T) {
	m := New()
	m.RecordQuery("u", time.Millisecond, "none", false)
	m.RecordQuery("u", time.Millisecond, "", false)
	if d := m.Snapshot(); d.GuardrailsTriggered != 0 {
		t.Fatalf("guardrails = %d", d.GuardrailsTriggered)
	}
}

func TestEmptySnapshot(t *testing.T) {
	d := New().Snapshot()
	if d.Users != 0 || d.Queries != 0 || d.AvgResponse != 0 {
		t.Fatalf("empty snapshot = %+v", d)
	}
}

func TestDashboardString(t *testing.T) {
	m := New()
	m.RecordQuery("u", 50*time.Millisecond, "rouge", false)
	m.RecordFeedback(true)
	out := m.Snapshot().String()
	for _, want := range []string{"Figure 3", "users", "rouge", "feedbacks", "avg response"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}

// TestDashboardStringSegmentRow checks the segment row carries the
// write-amplification counters and prints their ratio.
func TestDashboardStringSegmentRow(t *testing.T) {
	d := New().Snapshot()
	d.Segments = []SegmentGauge{
		{Shard: 0, Segments: 6, Seals: 41, Compactions: 12, ChunksSealed: 200, ChunksRewritten: 350},
		{Shard: 1}, // nothing sealed yet: the ratio reads 0, not NaN
	}
	out := d.String()
	for _, want := range []string{"rewritten÷sealed", "350/200 = 1.75", "0/0 = 0.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestObserveStageAggregates(t *testing.T) {
	m := New()
	m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageRetrieval, Duration: 10 * time.Millisecond, In: 3, Out: 90})
	m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageRetrieval, Duration: 30 * time.Millisecond, In: 3, Out: 110})
	m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageFusion, Duration: time.Millisecond, In: 200, Out: 50, Err: errors.New("x")})

	d := m.Snapshot()
	r, ok := stageByName(d, pipeline.StageRetrieval)
	if !ok {
		t.Fatalf("retrieval stage missing: %+v", d.Stages)
	}
	if r.Count != 2 || r.Errors != 0 || r.AvgLatency != 20*time.Millisecond || r.AvgIn != 3 || r.AvgOut != 100 {
		t.Fatalf("retrieval stats = %+v", r)
	}
	f, ok := stageByName(d, pipeline.StageFusion)
	if !ok || f.Count != 1 || f.Errors != 1 {
		t.Fatalf("fusion stats = %+v", f)
	}
	if _, ok := stageByName(d, "nonexistent"); ok {
		t.Fatal("stageByName invented a stage")
	}
}

func TestSnapshotStagesOrdered(t *testing.T) {
	m := New()
	for _, s := range []string{pipeline.StageGuardrails, "custom", pipeline.StageFilter, pipeline.StageRerank} {
		m.ObserveStage(pipeline.StageInfo{Stage: s})
	}
	d := m.Snapshot()
	var names []string
	for _, s := range d.Stages {
		names = append(names, s.Stage)
	}
	want := []string{pipeline.StageFilter, pipeline.StageRerank, pipeline.StageGuardrails, "custom"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage order = %v, want %v", names, want)
		}
	}
}

func TestDashboardStringIncludesStages(t *testing.T) {
	m := New()
	m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageFilter, Duration: time.Millisecond, In: 1, Out: 1})
	out := m.Snapshot().String()
	for _, want := range []string{"pipeline stages", "filter:"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	// A dashboard with no stage reports omits the section entirely.
	if strings.Contains(New().Snapshot().String(), "pipeline stages") {
		t.Error("empty dashboard shows a stage section")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.RecordQuery("user", time.Millisecond, "none", false)
				m.RecordFeedback(j%2 == 0)
				m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageRetrieval, Duration: time.Microsecond, In: 3, Out: 50})
			}
		}(i)
	}
	wg.Wait()
	d := m.Snapshot()
	if d.Queries != 800 || d.Feedbacks != 800 {
		t.Fatalf("lost events: %d queries, %d feedbacks", d.Queries, d.Feedbacks)
	}
	if s, _ := stageByName(d, pipeline.StageRetrieval); s.Count != 800 {
		t.Fatalf("lost stage reports: %+v", s)
	}
}

// tracedCtx returns a context carrying a sampled trace, plus its id.
func tracedCtx(t *testing.T, tr *trace.Tracer) (context.Context, string) {
	t.Helper()
	ctx, req := tr.StartRequest(context.Background(), "ask")
	if req.Root() == nil {
		t.Fatal("request must be sampled")
	}
	return ctx, req.TraceID()
}

func TestStageExemplarTracksWorstLatency(t *testing.T) {
	m := New()
	tr := trace.New(trace.Config{})
	fast, fastID := tracedCtx(t, tr)
	slow, slowID := tracedCtx(t, tr)

	m.ObserveStageCtx(fast, pipeline.StageInfo{Stage: pipeline.StageRerank, Duration: 2 * time.Millisecond})
	m.ObserveStageCtx(slow, pipeline.StageInfo{Stage: pipeline.StageRerank, Duration: 9 * time.Millisecond})
	// A later, faster traced run must not displace the worst exemplar.
	m.ObserveStageCtx(fast, pipeline.StageInfo{Stage: pipeline.StageRerank, Duration: 1 * time.Millisecond})
	// An untraced run raises the max but cannot become the exemplar.
	m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageRerank, Duration: 20 * time.Millisecond})

	s, ok := stageByName(m.Snapshot(), pipeline.StageRerank)
	if !ok {
		t.Fatal("rerank stage missing")
	}
	if s.MaxLatency != 20*time.Millisecond {
		t.Fatalf("MaxLatency = %v, want 20ms", s.MaxLatency)
	}
	if s.ExemplarTraceID != slowID {
		t.Fatalf("exemplar = %q, want the slow trace %q (fast was %q)", s.ExemplarTraceID, slowID, fastID)
	}
	if !strings.Contains(m.Snapshot().StagesString(), "trace="+slowID) {
		t.Fatal("StagesString must surface the exemplar trace id")
	}
}

// TestConcurrentStageObserversVsSnapshot hammers the stage-aggregate map
// from observer and reader goroutines at once; run with -race this proves
// the stageMu split (satellite of the tracing PR) is sound.
func TestConcurrentStageObserversVsSnapshot(t *testing.T) {
	m := New()
	tr := trace.New(trace.Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, _ := tr.StartRequest(context.Background(), "ask")
			for j := 0; j < 200; j++ {
				m.ObserveStageCtx(ctx, pipeline.StageInfo{Stage: pipeline.StageRetrieval, Duration: time.Duration(j) * time.Microsecond, In: 1, Out: 1})
				m.ObserveStage(pipeline.StageInfo{Stage: pipeline.StageFusion, Duration: time.Microsecond})
				m.RecordQuery("user", time.Millisecond, "none", false)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d := m.Snapshot()
				_ = d.StagesString()
				_ = d.String()
			}
		}
	}()
	// Let the reader contend for a few ms, then stop it and join everyone.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; i < 5; i++ {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	s, _ := stageByName(m.Snapshot(), pipeline.StageRetrieval)
	if s.Count != 800 {
		t.Fatalf("lost stage reports under contention: %d, want 800", s.Count)
	}
	if s.ExemplarTraceID == "" {
		t.Fatal("traced reports must leave an exemplar")
	}
}

// stageByName returns d's row for stage.
func stageByName(d Dashboard, stage string) (StageStats, bool) {
	for _, s := range d.Stages {
		if s.Stage == stage {
			return s, true
		}
	}
	return StageStats{}, false
}
