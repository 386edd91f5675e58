package trace

// Tracer: trace-id minting, head sampling, and the per-request lifecycle.
// The head-sampling decision is taken once per request from a
// deterministic hash of the trace id, so a fixed seed reproduces exactly
// which requests of a test run were traced.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for the zero Config.
const (
	// DefaultCapacity is the default trace-store size (retained traces,
	// ordinary + always-retained combined).
	DefaultCapacity = 2048
	// DefaultSlowThreshold is the root-span duration beyond which a trace
	// counts as slow and is always retained by tail sampling.
	DefaultSlowThreshold = 250 * time.Millisecond
)

// Config parameterizes a Tracer. The zero value samples every request
// (rate 1.0), retains DefaultCapacity traces and treats requests slower
// than DefaultSlowThreshold as always-retain.
type Config struct {
	// Capacity bounds the store (0 = DefaultCapacity). The always-retained
	// class (error/degraded/slow) and the ordinary class each get half, so
	// a flood of healthy traffic can never evict the failures an operator
	// is hunting.
	Capacity int
	// SampleRate is the head-sampling probability in [0, 1] (0 = 1.0, i.e.
	// trace everything; negative = trace nothing). Sampled-out requests
	// record no spans at all — they still get a trace id for the response
	// header, but cost no allocations on the query path.
	SampleRate float64
	// SlowThreshold is the always-retain latency bound (0 =
	// DefaultSlowThreshold; negative disables the slow rule).
	SlowThreshold time.Duration
	// Seed drives trace-id generation and therefore the deterministic
	// head-sampling sequence (0 = seed 1).
	Seed int64
}

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return DefaultCapacity
	}
	return c.Capacity
}

func (c Config) rate() float64 {
	switch {
	case c.SampleRate < 0:
		return 0
	case c.SampleRate == 0 || c.SampleRate > 1:
		return 1
	}
	return c.SampleRate
}

func (c Config) slow() time.Duration {
	switch {
	case c.SlowThreshold < 0:
		return time.Duration(1<<63 - 1)
	case c.SlowThreshold == 0:
		return DefaultSlowThreshold
	}
	return c.SlowThreshold
}

// rec is one in-flight trace: the spans recorded so far and the lock that
// makes concurrent fan-out goroutines' appends safe.
type rec struct {
	id string

	mu       sync.Mutex
	spans    []*Span
	nextSpan uint64
}

// newSpan appends a span to the trace. A zero duration means the span is
// still running (End stamps it); the post-hoc stage observer passes the
// final duration directly.
func (r *rec) newSpan(name string, parent uint64, start time.Time, dur time.Duration, attrs []Attr) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSpan++
	s := &Span{
		SpanID: r.nextSpan, Parent: parent, Name: name,
		Start: start, Duration: dur, Attrs: attrs, rec: r,
	}
	r.spans = append(r.spans, s)
	return s
}

// Tracer mints per-request traces and owns their store. A nil *Tracer is
// valid and traces nothing.
type Tracer struct {
	cfg   Config
	store *Store
	seq   atomic.Uint64
	seed  uint64
}

// New creates a Tracer with its bounded store.
func New(cfg Config) *Tracer {
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 1
	}
	return &Tracer{cfg: cfg, store: newStore(cfg.capacity()), seed: seed}
}

// Store exposes the tracer's trace store (nil on a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// splitmix64 is the id/sampling mixer: cheap, stateless, well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Request is the root handle for one traced request: the trace id for the
// response header, the root span, and the End that runs tail sampling and
// stores the finished trace. A nil *Request (nil tracer) is a no-op; a
// head-sampled-out request has a Request with an id but no spans.
type Request struct {
	t    *Tracer
	rec  *rec
	root *Span
	id   string
}

// StartRequest mints a trace id, takes the head-sampling decision and — on
// a sampled request — opens the root span and threads it through the
// returned context. Sampled-out requests get back their context unchanged.
func (t *Tracer) StartRequest(ctx context.Context, name string) (context.Context, *Request) {
	return t.StartRequestRate(ctx, name, 0)
}

// StartRequestRate is StartRequest with a per-request head-sampling rate
// override in (0, 1] — the hook multi-tenant serving uses to apply a
// tenant's TraceSampleRate against the shared tracer. A non-positive rate
// inherits the tracer's configured rate; the deterministic id/sampling
// sequence is shared either way, so a fixed seed still reproduces exactly
// which requests were traced.
func (t *Tracer) StartRequestRate(ctx context.Context, name string, rate float64) (context.Context, *Request) {
	if t == nil {
		return ctx, nil
	}
	n := t.seq.Add(1)
	idBits := splitmix64(t.seed ^ n*0x2545f4914f6cdd1d)
	id := fmt.Sprintf("%016x", idBits)
	if rate <= 0 {
		rate = t.cfg.rate()
	} else if rate > 1 {
		rate = 1
	}
	// A second mix decorrelates the sampling decision from the id bits the
	// operator sees.
	if float64(splitmix64(idBits))/float64(1<<64) >= rate {
		return ctx, &Request{t: t, id: id}
	}
	r := &rec{id: id}
	root := r.newSpan(name, 0, time.Now(), 0, nil)
	return context.WithValue(ctx, ctxKey{}, root), &Request{t: t, rec: r, root: root, id: id}
}

// TraceID reports the request's trace id ("" on a nil request).
func (r *Request) TraceID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Root returns the root span (nil when unsampled) for status and attrs.
func (r *Request) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// End closes the root span and runs the tail-sampling decision: error,
// degraded and slow traces are always retained (the protected ring),
// everything else competes for the ordinary ring. Call exactly once, after
// the request finished and its fan-out goroutines joined.
func (r *Request) End() {
	if r == nil || r.rec == nil {
		return
	}
	r.root.End()
	r.rec.mu.Lock()
	spans := make([]Span, len(r.rec.spans))
	for i, s := range r.rec.spans {
		spans[i] = *s
	}
	root := spans[0]
	r.rec.mu.Unlock()

	reason := "sampled"
	switch {
	case root.Status == StatusError:
		reason = "error"
	case root.Status == StatusDegraded:
		reason = "degraded"
	case root.Duration >= r.t.cfg.slow():
		reason = "slow"
	}
	r.t.store.put(&TraceData{
		TraceID:  r.id,
		Name:     root.Name,
		Start:    root.Start,
		Duration: root.Duration,
		Status:   root.Status,
		Retained: reason,
		Spans:    spans,
	}, reason != "sampled")
}
