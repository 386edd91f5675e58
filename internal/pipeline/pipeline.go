// Package pipeline models UniAsk's Figure-1 query path as named,
// composable stages. A stage is any unit of work with an input size, an
// output size, a latency and an error; stages report themselves through an
// Observer so the §9 monitoring layer sees every hop of every query
// without the stages knowing who is watching.
//
// The package also provides the bounded concurrent fan-out the query path
// uses to run its independent retrieval legs (BM25 text search plus one
// ANN search per vector field, and the per-query searches of the MQ1
// expansion) in parallel: Map preserves task order exactly, so the fused
// ranking downstream of a concurrent fan-out is byte-identical to the
// sequential execution.
//
// Every entry point takes a context.Context and honors cancellation: a
// cancelled pipeline returns ctx.Err(), never partial results.
package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Canonical stage names of the Figure-1 query path. Observers receive
// these in StageInfo.Stage; anything else is a custom stage.
const (
	StageFilter = "filter"
	// StageRewrite is the history-aware query rewrite of a conversational
	// turn: the raw question plus the session history in, one standalone
	// query out. Runs before expansion; sheds to the raw query on failure.
	StageRewrite    = "rewrite"
	StageExpand     = "expand"
	StageEmbed      = "embed"
	StageRetrieval  = "retrieval"
	StageFusion     = "fusion"
	StageRerank     = "rerank"
	StageGeneration = "generation"
	StageGuardrails = "guardrails"
	// StageDegraded is the synthetic stage reporting every shed unit of
	// work: a failed retrieval leg, a skipped expansion, an extractive
	// generation fallback. Its Err carries the cause; its In counts the
	// shed items. The monitor surfaces it as the degradation gauge.
	StageDegraded = "degraded"
)

// StageOrder returns the display rank of a stage: canonical Figure-1
// stages in query-flow order first, unknown stages after them.
func StageOrder(stage string) int {
	for i, s := range []string{
		StageFilter, StageRewrite, StageExpand, StageEmbed, StageRetrieval,
		StageFusion, StageRerank, StageGeneration, StageGuardrails,
		StageDegraded,
	} {
		if s == stage {
			return i
		}
	}
	return 100
}

// StageInfo describes one completed (or refused) stage execution.
type StageInfo struct {
	// Stage is the stage name (one of the Stage* constants or custom).
	Stage string
	// Duration is how long the stage ran (zero when the stage was refused
	// because its context was already cancelled).
	Duration time.Duration
	// In and Out are the stage's input and output sizes — items, not
	// bytes: documents in, rankings out, chunks in, one answer out.
	In, Out int
	// Err is the stage error, including ctx.Err() on cancellation.
	Err error
}

// Observer receives stage reports. Implementations must be safe for
// concurrent use: fan-out stages report from multiple goroutines.
type Observer interface {
	ObserveStage(StageInfo)
}

// CtxObserver is the optional context-aware extension of Observer: an
// observer that also wants the reporting stage's context — the tracing
// adapter reads the active trace from it, the monitor reads the trace id
// for its exemplar links. Observe prefers this method when present.
type CtxObserver interface {
	Observer
	ObserveStageCtx(ctx context.Context, info StageInfo)
}

// Observe dispatches one stage report to obs, preferring the context-aware
// interface, and recovers an observer panic instead of letting it unwind
// into the stage that reported: observers are bystanders, and one that
// panics must not kill the query it is watching.
func Observe(ctx context.Context, obs Observer, info StageInfo) {
	if obs == nil {
		return
	}
	defer func() { _ = recover() }()
	if co, ok := obs.(CtxObserver); ok {
		co.ObserveStageCtx(ctx, info)
		return
	}
	obs.ObserveStage(info)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(StageInfo)

// ObserveStage implements Observer.
func (f ObserverFunc) ObserveStage(info StageInfo) { f(info) }

type nopObserver struct{}

func (nopObserver) ObserveStage(StageInfo) {}

// Nop is the observer that discards every report.
var Nop Observer = nopObserver{}

// OrNop returns obs, or Nop when obs is nil, so call sites never need a
// nil check.
func OrNop(obs Observer) Observer {
	if obs == nil {
		return Nop
	}
	return obs
}

type multiObserver []Observer

func (m multiObserver) ObserveStage(info StageInfo) {
	m.ObserveStageCtx(context.Background(), info)
}

// ObserveStageCtx fans the report out to every member through the
// panic-recovering dispatch, so one crashing observer cannot starve its
// siblings of the report (or kill the query).
func (m multiObserver) ObserveStageCtx(ctx context.Context, info StageInfo) {
	for _, o := range m {
		Observe(ctx, o, info)
	}
}

// Multi fans each stage report out to every given observer (nils skipped).
func Multi(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return Nop
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

// Run executes fn as a named stage: it refuses to start when ctx is
// already cancelled (reporting the refusal), times the execution, and
// reports the outcome to obs. fn returns the stage's output size. Run
// returns fn's error, or ctx.Err() when the stage never started.
func Run(ctx context.Context, obs Observer, stage string, in int, fn func(context.Context) (int, error)) error {
	obs = OrNop(obs)
	if err := ctx.Err(); err != nil {
		Observe(ctx, obs, StageInfo{Stage: stage, In: in, Err: err})
		return err
	}
	start := time.Now()
	out, err := fn(ctx)
	Observe(ctx, obs, StageInfo{Stage: stage, Duration: time.Since(start), In: in, Out: out, Err: err})
	return err
}

// DefaultWorkers is the fan-out width used when a caller does not set one.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map runs n independent tasks over a bounded pool of workers and returns
// their results in task order: out[i] is fn(ctx, i). The concurrent
// execution is observationally identical to running the tasks 0..n-1
// sequentially — callers that join the results (RRF fusion) see the exact
// ordering of the sequential path.
//
// If ctx is cancelled mid-flight Map returns ctx.Err() and no results.
// If a task fails, the remaining tasks are cancelled and the error of the
// lowest-index failed task is returned (matching what a sequential loop
// would have surfaced first); task errors caused only by that internal
// cancellation do not mask the original failure.
func Map[T any](ctx context.Context, workers, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	fail := func(i int, err error) {
		mu.Lock()
		switch {
		case firstErr == nil:
			firstErr, firstIdx = err, i
		case i < firstIdx && !isOnlyCancellation(err, firstErr):
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if mctx.Err() != nil {
					return
				}
				v, err := fn(mctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-mctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// The caller's cancellation always wins: never return partial results.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// isOnlyCancellation reports whether err is just the echo of the internal
// cancellation triggered by prev — such an error must not displace the
// failure that caused it merely because it carries a lower task index.
func isOnlyCancellation(err, prev error) bool {
	return errors.Is(err, context.Canceled) && !errors.Is(prev, context.Canceled)
}
