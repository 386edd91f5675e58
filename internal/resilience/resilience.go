// Package resilience is UniAsk's fault-tolerance substrate. The production
// system sits on flaky managed services — the chat-completion API, the
// embedding API, the search backend — and the paper's guardrail story only
// holds if the query pipeline survives their failures. This package provides
// the generic machinery every remote-shaped dependency is wrapped behind:
//
//   - Do / DoValue: a retry engine with capped exponential backoff,
//     deterministic seeded jitter, per-attempt timeouts and deadline
//     propagation, and error classification (retryable vs terminal vs
//     budget-exhausted);
//   - Breaker: a per-dependency circuit breaker (closed → open → half-open
//     with a single probe) so a hard-down dependency sheds load instead of
//     burning every request's latency budget on doomed retries;
//   - Hedge: tail-latency hedged requests for cheap idempotent calls.
//
// Everything is deterministic under a fixed seed and drives its waits
// through a vclock.Clock, so chaos tests and breaker-transition tests run on
// virtual time.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"uniask/internal/trace"
	"uniask/internal/vclock"
)

// Class is the retry-engine classification of an attempt error.
type Class int

// Error classes.
const (
	// Retryable errors are transient (rate limits, timeouts, 5xx-shaped
	// upstream failures): the engine backs off and tries again.
	Retryable Class = iota
	// Terminal errors cannot be cured by retrying (bad request, cancelled
	// caller, open breaker): the engine returns them immediately.
	Terminal
)

// Classifier maps an attempt error to a Class. A nil Classifier uses
// DefaultClassify.
type Classifier func(error) Class

// ErrBudgetExhausted wraps the last attempt error when every allowed
// attempt failed. errors.Is(err, ErrBudgetExhausted) identifies it;
// errors.Is also still matches the underlying cause.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// ErrBreakerOpen is returned by Breaker.Allow (and so by any wrapped call)
// while the circuit is open. It is terminal for the retry engine: retrying
// against an open breaker is pointless by construction.
var ErrBreakerOpen = errors.New("resilience: circuit open")

// terminalError marks an error as not worth retrying.
type terminalError struct{ err error }

func (t terminalError) Error() string { return t.err.Error() }
func (t terminalError) Unwrap() error { return t.err }

// MarkTerminal wraps err so DefaultClassify treats it as Terminal.
func MarkTerminal(err error) error {
	if err == nil {
		return nil
	}
	return terminalError{err: err}
}

// DefaultClassify treats context cancellation/deadline, open breakers and
// MarkTerminal-wrapped errors as Terminal, everything else as Retryable.
func DefaultClassify(err error) Class {
	var t terminalError
	switch {
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrBreakerOpen),
		errors.As(err, &t):
		return Terminal
	}
	return Retryable
}

// Policy configures the retry engine. The zero value is usable: it means
// DefaultMaxAttempts attempts with the default backoff and jitter.
type Policy struct {
	// MaxAttempts is the total number of attempts, first call included
	// (0 = DefaultMaxAttempts; negative = exactly one attempt, no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 1s); each delay doubles the
	// one before it until then.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized, in [0, 1]
	// (default 0.2): the delay is scaled by a factor drawn uniformly from
	// [1-Jitter/2, 1+Jitter/2].
	Jitter float64
	// Seed drives the jitter deterministically; the same seed yields the
	// same delay sequence (0 = seed 1).
	Seed int64
	// AttemptTimeout bounds each individual attempt with a context deadline
	// (0 = no per-attempt bound; the caller's deadline still applies).
	AttemptTimeout time.Duration
	// Classify decides which errors are retried (nil = DefaultClassify).
	Classify Classifier
	// Clock drives the backoff waits (nil = wall clock). Virtual clocks
	// make backoff tests instantaneous.
	Clock vclock.Clock
}

// DefaultMaxAttempts is the attempt budget used when Policy.MaxAttempts is
// zero.
const DefaultMaxAttempts = 3

// attempts normalizes the attempt budget: 0 selects the default, negative
// disables retries entirely (one attempt).
func (p Policy) attempts() int {
	switch {
	case p.MaxAttempts == 0:
		return DefaultMaxAttempts
	case p.MaxAttempts < 0:
		return 1
	}
	return p.MaxAttempts
}

func (p Policy) clock() vclock.Clock {
	if p.Clock == nil {
		return vclock.Real{}
	}
	return p.Clock
}

func (p Policy) classify(err error) Class {
	if p.Classify == nil {
		return DefaultClassify(err)
	}
	return p.Classify(err)
}

// Delays returns the deterministic backoff sequence the policy would sleep
// between attempts: Delays(n)[i] is the wait after attempt i+1 fails. The
// same Policy (same Seed) always returns the same sequence — tests assert
// jitter determinism against this.
func (p Policy) Delays(n int) []time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	jitter := p.Jitter
	if jitter < 0 {
		jitter = 0
	}
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 1 {
		jitter = 1
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, n)
	d := float64(base)
	for i := 0; i < n; i++ {
		scale := 1 - jitter/2 + jitter*rng.Float64()
		jittered := time.Duration(d * scale)
		if jittered > maxd {
			jittered = maxd
		}
		out = append(out, jittered)
		d *= 2
		if d > float64(maxd) {
			d = float64(maxd)
		}
	}
	return out
}

// DoValue runs op under the policy: it refuses when ctx is already done,
// bounds each attempt with AttemptTimeout, retries Retryable failures with
// the deterministic backoff, and stops on Terminal errors, caller
// cancellation, or an exhausted attempt budget (then wrapping the last
// error in ErrBudgetExhausted).
func DoValue[T any](ctx context.Context, p Policy, op func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	attempts := p.attempts()
	delays := p.Delays(attempts - 1)
	clock := p.clock()

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		v, err := op(actx)
		cancel()
		if err == nil {
			return v, nil
		}
		lastErr = err
		// Each failed attempt becomes an event on whatever span is active
		// (the llm/embedding leaf span, or a retrieval component span), so a
		// fetched trace shows exactly how the retry budget was spent.
		if trace.Enabled(ctx) {
			trace.AddEvent(ctx, "retry",
				trace.A("attempt", strconv.Itoa(attempt+1)),
				trace.A("error", err.Error()))
		}
		// The caller's own cancellation always wins over classification: an
		// attempt that failed because the parent died must not be retried.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return zero, ctxErr
		}
		// A per-attempt timeout with a live parent is the signature of a
		// slow dependency — retryable even though the error is a ctx error.
		attemptTimedOut := p.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if !attemptTimedOut && p.classify(err) == Terminal {
			return zero, err
		}
		if attempt == attempts-1 {
			break
		}
		select {
		case <-clock.After(delays[attempt]):
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	return zero, fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempts, lastErr)
}
