package resilience

// Per-dependency circuit breaker. A dependency that fails repeatedly is
// almost certainly still failing one retry later: the breaker opens after a
// run of consecutive failures, sheds every call for a cooldown (callers get
// ErrBreakerOpen immediately and can degrade gracefully instead of waiting
// out retries), then admits a single half-open probe. A successful probe
// closes the circuit; a failed one reopens it for another cooldown.

import (
	"context"
	"errors"
	"sync"
	"time"

	"uniask/internal/trace"
	"uniask/internal/vclock"
)

// State is a breaker state.
type State int

// Breaker states.
const (
	// Closed admits every call (normal operation).
	Closed State = iota
	// Open sheds every call until the cooldown elapses.
	Open
	// HalfOpen admits exactly one probe call at a time.
	HalfOpen
)

// String renders the state for dashboards and health endpoints.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig configures a Breaker. The zero value gives the defaults.
// Every non-nil error counts as a failure, and one successful half-open
// probe closes the circuit.
type BreakerConfig struct {
	// Name identifies the guarded dependency ("llm", "embedding", ...) in
	// health output and state-change notifications.
	Name string
	// FailureThreshold is the consecutive-failure count that opens the
	// circuit (default 5).
	FailureThreshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Clock drives the cooldown (nil = wall clock).
	Clock vclock.Clock
	// OnStateChange, when set, is called (outside the breaker lock) after
	// every transition — the monitor wires its breaker gauges here.
	OnStateChange func(name string, from, to State)
}

// Breaker is a circuit breaker. The zero value is not usable; construct
// with NewBreaker. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int // consecutive failures while closed / probe failures observed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker creates a breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	return &Breaker{cfg: cfg}
}

// Name reports the configured dependency name.
func (b *Breaker) Name() string { return b.cfg.Name }

// State reports the current state, applying the open→half-open timeout.
func (b *Breaker) State() State {
	b.mu.Lock()
	notify := b.maybeHalfOpenLocked()
	s := b.state
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return s
}

// maybeHalfOpenLocked moves an open breaker whose cooldown has elapsed into
// half-open. Caller holds b.mu. Returns the notification to fire, if any.
func (b *Breaker) maybeHalfOpenLocked() (notify func()) {
	if b.state == Open && b.cfg.Clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return b.transitionLocked(HalfOpen)
	}
	return nil
}

// transitionLocked switches state and returns the deferred OnStateChange
// call (to run outside the lock). Caller holds b.mu.
func (b *Breaker) transitionLocked(to State) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	switch to {
	case Open:
		b.openedAt = b.cfg.Clock.Now()
		b.probing = false
	case HalfOpen:
		b.probing = false
	case Closed:
		b.failures = 0
		b.probing = false
	}
	if cb := b.cfg.OnStateChange; cb != nil {
		name := b.cfg.Name
		return func() { cb(name, from, to) }
	}
	return nil
}

// Allow reports whether a call may proceed: nil in closed state, nil for
// exactly one in-flight probe in half-open state, ErrBreakerOpen otherwise.
// Every admitted call MUST be followed by exactly one RecordCtx.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	notify := b.maybeHalfOpenLocked()
	var err error
	switch b.state {
	case Open:
		err = ErrBreakerOpen
	case HalfOpen:
		if b.probing {
			err = ErrBreakerOpen
		} else {
			b.probing = true
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return err
}

// RecordCtx applies one admitted call's outcome (see record). When the
// outcome transitions the breaker, the transition is attached as an event
// to the span active in ctx — the request that tripped (or healed) the
// circuit carries the evidence in its own trace.
func (b *Breaker) RecordCtx(ctx context.Context, err error) {
	from, to, changed := b.record(err)
	if changed && trace.Enabled(ctx) {
		trace.AddEvent(ctx, "breaker.transition",
			trace.A("breaker", b.cfg.Name),
			trace.A("from", from.String()),
			trace.A("to", to.String()))
	}
}

// record applies one admitted call's outcome and reports the state
// transition it caused, if any. A cancelled call is neutral: the caller
// gave up (or a hedge winner reaped it) before the dependency answered, so
// it proves neither health nor a fault. It hands back the half-open probe
// slot and moves nothing else — an unverified outcome must not close a
// half-open circuit or reset a closed one's failure run.
func (b *Breaker) record(err error) (from, to State, changed bool) {
	if errors.Is(err, context.Canceled) {
		b.mu.Lock()
		b.probing = false
		state := b.state
		b.mu.Unlock()
		return state, state, false
	}
	failed := err != nil
	b.mu.Lock()
	before := b.state
	var notify func()
	switch b.state {
	case Closed:
		if failed {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				notify = b.transitionLocked(Open)
			}
		} else {
			b.failures = 0
		}
	case HalfOpen:
		b.probing = false
		if failed {
			notify = b.transitionLocked(Open)
		} else {
			notify = b.transitionLocked(Closed)
		}
	case Open:
		// A straggler from before the circuit opened; its outcome is stale.
	}
	after := b.state
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return before, after, before != after
}

// BreakerStatus is a point-in-time view of one breaker, surfaced by the
// engine's health report and the /api/health endpoint.
type BreakerStatus struct {
	// Name is the guarded dependency.
	Name string `json:"name"`
	// State is the current state string ("closed", "open", "half-open").
	State string `json:"state"`
	// ConsecutiveFailures is the current failure run length (closed state).
	ConsecutiveFailures int `json:"consecutiveFailures"`
}

// Status snapshots the breaker.
func (b *Breaker) Status() BreakerStatus {
	state := b.State() // applies the cooldown transition first
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{Name: b.cfg.Name, State: state.String(), ConsecutiveFailures: b.failures}
}
