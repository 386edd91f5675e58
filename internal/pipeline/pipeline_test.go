package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a thread-safe test observer.
type recorder struct {
	mu    sync.Mutex
	infos []StageInfo
}

func (r *recorder) ObserveStage(info StageInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos = append(r.infos, info)
}

func (r *recorder) byStage(stage string) []StageInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []StageInfo
	for _, i := range r.infos {
		if i.Stage == stage {
			out = append(out, i)
		}
	}
	return out
}

func TestRunReportsStage(t *testing.T) {
	rec := &recorder{}
	err := Run(context.Background(), rec, StageFusion, 7, func(ctx context.Context) (int, error) {
		time.Sleep(time.Millisecond)
		return 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.byStage(StageFusion)
	if len(got) != 1 {
		t.Fatalf("reports = %+v", got)
	}
	info := got[0]
	if info.In != 7 || info.Out != 3 || info.Err != nil || info.Duration <= 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestRunReportsError(t *testing.T) {
	rec := &recorder{}
	boom := errors.New("boom")
	err := Run(context.Background(), rec, StageGeneration, 1, func(ctx context.Context) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := rec.byStage(StageGeneration); len(got) != 1 || !errors.Is(got[0].Err, boom) {
		t.Fatalf("reports = %+v", got)
	}
}

func TestRunRefusesCancelledContext(t *testing.T) {
	rec := &recorder{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Run(ctx, rec, StageRerank, 5, func(ctx context.Context) (int, error) {
		ran = true
		return 5, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("stage body ran under a cancelled context")
	}
	got := rec.byStage(StageRerank)
	if len(got) != 1 || !errors.Is(got[0].Err, context.Canceled) || got[0].In != 5 {
		t.Fatalf("reports = %+v", got)
	}
}

func TestRunNilObserver(t *testing.T) {
	if err := Run(context.Background(), nil, "x", 0, func(ctx context.Context) (int, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(context.Background(), workers, 100, func(ctx context.Context, i int) (string, error) {
			return fmt.Sprintf("task-%03d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != fmt.Sprintf("task-%03d", i) {
				t.Fatalf("workers=%d: out[%d] = %q", workers, i, v)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := Map(context.Background(), workers, 50, func(ctx context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks with %d workers", p, workers)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(ctx context.Context, i int) (int, error) {
		t.Fatal("task ran for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestMapTaskErrorCancelsRest: once task 3 fails, the tasks after it see
// their context end. They wait for that instead of racing it, so the other
// worker cannot finish all 100 first on any schedule; a wait that outlives
// the fallback means Map never cancelled.
func TestMapTaskErrorCancelsRest(t *testing.T) {
	boom := errors.New("task failed")
	fallback, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	var ran, uncancelled atomic.Int32
	_, err := Map(context.Background(), 2, 100, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		switch {
		case i == 3:
			return 0, boom
		case i > 3:
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-fallback.Done():
				uncancelled.Add(1)
			}
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 100 || uncancelled.Load() > 0 {
		t.Fatalf("error did not cancel remaining tasks: %d ran, %d never saw their context end", n, uncancelled.Load())
	}
}

func TestMapErrorNotMaskedByCancellationEcho(t *testing.T) {
	boom := errors.New("real failure")
	release := make(chan struct{})
	_, err := Map(context.Background(), 2, 4, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			// Wait until task 1 has failed, then echo the internal
			// cancellation like a well-behaved ctx-aware task.
			<-release
			<-ctx.Done()
			return 0, ctx.Err()
		}
		if i == 1 {
			defer close(release)
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure", err)
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, 4, 10, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapMidFlightCancellationReturnsNoPartialResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := Map(ctx, workers, 100, func(c context.Context, i int) (int, error) {
			if i == 10 {
				cancel()
			}
			if err := c.Err(); err != nil {
				return 0, err
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: partial results leaked: %v", workers, out)
		}
	}
}

func TestMultiAndOrNop(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	obs := Multi(nil, a, b)
	obs.ObserveStage(StageInfo{Stage: "x"})
	if len(a.byStage("x")) != 1 || len(b.byStage("x")) != 1 {
		t.Fatal("multi observer dropped a report")
	}
	if Multi() != Nop {
		t.Fatal("empty Multi is not Nop")
	}
	if OrNop(nil) != Nop || OrNop(a) != Observer(a) {
		t.Fatal("OrNop misbehaves")
	}
}

func TestStageOrder(t *testing.T) {
	if !(StageOrder(StageFilter) < StageOrder(StageRetrieval) &&
		StageOrder(StageRetrieval) < StageOrder(StageFusion) &&
		StageOrder(StageFusion) < StageOrder(StageRerank) &&
		StageOrder(StageRerank) < StageOrder(StageGeneration) &&
		StageOrder(StageGeneration) < StageOrder(StageGuardrails)) {
		t.Fatal("canonical stage order broken")
	}
	if StageOrder("custom") <= StageOrder(StageGuardrails) {
		t.Fatal("unknown stages must sort after canonical ones")
	}
}

// ctxRecorder is a context-aware test observer: it records which context
// key values it saw, proving Observe prefers ObserveStageCtx.
type ctxRecorder struct {
	recorder
	ctxSeen atomic.Int64
}

type testCtxKey struct{}

func (r *ctxRecorder) ObserveStageCtx(ctx context.Context, info StageInfo) {
	if ctx.Value(testCtxKey{}) != nil {
		r.ctxSeen.Add(1)
	}
	r.ObserveStage(info)
}

func TestObservePrefersCtxObserver(t *testing.T) {
	rec := &ctxRecorder{}
	ctx := context.WithValue(context.Background(), testCtxKey{}, "yes")
	Observe(ctx, rec, StageInfo{Stage: "x"})
	if rec.ctxSeen.Load() != 1 {
		t.Fatal("Observe must dispatch through ObserveStageCtx when implemented")
	}
	if len(rec.byStage("x")) != 1 {
		t.Fatal("report lost")
	}
	// Run must hand its context through to the observer too.
	if err := Run(ctx, rec, "y", 0, func(context.Context) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if rec.ctxSeen.Load() != 2 {
		t.Fatal("Run must dispatch reports with the stage's context")
	}
}

// panicObserver panics on every report, in both dispatch shapes.
type panicObserver struct{}

func (panicObserver) ObserveStage(StageInfo) { panic("observer bug") }
func (panicObserver) ObserveStageCtx(context.Context, StageInfo) {
	panic("ctx observer bug")
}

func TestObserveRecoversPanickingObserver(t *testing.T) {
	before := ObserverPanics()
	rec := &recorder{}
	obs := Multi(panicObserver{}, rec)

	// The stage must complete and its report must still reach the healthy
	// sibling, with the panic counted instead of unwinding into the query.
	err := Run(context.Background(), obs, StageRerank, 5, func(context.Context) (int, error) {
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.byStage(StageRerank); len(got) != 1 || got[0].Out != 2 {
		t.Fatalf("healthy sibling reports = %+v, want one rerank report", got)
	}
	if ObserverPanics() <= before {
		t.Fatal("recovered panic must be counted")
	}

	// A bare (non-Multi) panicking observer must not kill Run either.
	if err := Run(context.Background(), panicObserver{}, "z", 0, func(context.Context) (int, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiObserverConcurrent(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	obs := Multi(a, b, panicObserver{})
	const goroutines, reports = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				Observe(context.Background(), obs, StageInfo{Stage: "conc", In: g, Out: i})
			}
		}(g)
	}
	wg.Wait()
	if got := len(a.byStage("conc")); got != goroutines*reports {
		t.Fatalf("observer a saw %d reports, want %d", got, goroutines*reports)
	}
	if got := len(b.byStage("conc")); got != goroutines*reports {
		t.Fatalf("observer b saw %d reports, want %d", got, goroutines*reports)
	}
}
