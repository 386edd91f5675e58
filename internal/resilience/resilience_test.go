package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"uniask/internal/vclock"
)

// fastPolicy retries aggressively with negligible real sleeps so tests stay
// quick without a virtual clock.
func fastPolicy(attempts int) Policy {
	return Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

var errBoom = errors.New("boom")

func TestDoPolicyTable(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name      string
		ctx       context.Context
		policy    Policy
		failures  int // op fails this many times before succeeding
		wantCalls int
		wantErr   error // sentinel the returned error must match (nil = success)
	}{
		{
			name: "success first try", ctx: context.Background(),
			policy: fastPolicy(3), failures: 0, wantCalls: 1,
		},
		{
			name: "retry until success", ctx: context.Background(),
			policy: fastPolicy(3), failures: 2, wantCalls: 3,
		},
		{
			name: "budget exhausted", ctx: context.Background(),
			policy: fastPolicy(3), failures: 99, wantCalls: 3, wantErr: ErrBudgetExhausted,
		},
		{
			name: "zero attempts means default budget", ctx: context.Background(),
			policy: Policy{BaseDelay: time.Microsecond}, failures: 99,
			wantCalls: DefaultMaxAttempts, wantErr: ErrBudgetExhausted,
		},
		{
			name: "negative attempts disables retry", ctx: context.Background(),
			policy: Policy{MaxAttempts: -1}, failures: 99, wantCalls: 1, wantErr: ErrBudgetExhausted,
		},
		{
			name: "ctx already cancelled refuses to start", ctx: cancelled,
			policy: fastPolicy(3), failures: 0, wantCalls: 0, wantErr: context.Canceled,
		},
		{
			name: "terminal error stops immediately", ctx: context.Background(),
			policy: fastPolicy(5), failures: 99, wantCalls: 1, wantErr: errBoom,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			p := tc.policy
			terminal := tc.name == "terminal error stops immediately"
			err := Do(tc.ctx, p, func(context.Context) error {
				calls++
				if calls <= tc.failures {
					if terminal {
						return MarkTerminal(errBoom)
					}
					return errBoom
				}
				return nil
			})
			if calls != tc.wantCalls {
				t.Fatalf("calls = %d, want %d", calls, tc.wantCalls)
			}
			if tc.wantErr == nil && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestBudgetErrorKeepsCause checks that the exhausted-budget error still
// matches the underlying failure, so callers can classify the cause.
func TestBudgetErrorKeepsCause(t *testing.T) {
	err := Do(context.Background(), fastPolicy(2), func(context.Context) error { return errBoom })
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want both ErrBudgetExhausted and errBoom", err)
	}
}

func TestCancellationMidRetryWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errBoom
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// TestAttemptTimeoutIsRetryable: an attempt exceeding AttemptTimeout while
// the caller's context is alive must be retried, not surfaced as terminal.
func TestAttemptTimeoutIsRetryable(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, AttemptTimeout: 5 * time.Millisecond}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done() // simulate a hang cut short by the attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil after retrying past the slow attempt", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestDelaysJitterDeterminism(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	a, b := p.Delays(6), p.Delays(6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different delay sequences:\n%v\n%v", a, b)
	}
	p2 := p
	p2.Seed = 43
	if reflect.DeepEqual(a, p2.Delays(6)) {
		t.Fatalf("different seeds gave identical delay sequences: %v", a)
	}
	// Capped exponential shape: non-decreasing up to the cap, never above it.
	for i, d := range a {
		if d > time.Second {
			t.Fatalf("delay[%d] = %v exceeds MaxDelay", i, d)
		}
		if d <= 0 {
			t.Fatalf("delay[%d] = %v not positive", i, d)
		}
	}
	if a[5] < a[0] {
		t.Fatalf("delays shrank: %v", a)
	}
}

func TestDoValueReturnsValue(t *testing.T) {
	v, err := DoValue(context.Background(), fastPolicy(3), func(context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("DoValue = %d, %v", v, err)
	}
}

func TestBreakerCycle(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Name: "dep", FailureThreshold: 3, Cooldown: time.Minute, Clock: clock,
		OnStateChange: func(name string, from, to State) {
			transitions = append(transitions, fmt.Sprintf("%s:%s->%s", name, from, to))
		},
	})

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
			t.Fatalf("closed call %d: %v", i, err)
		}
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v", b.State())
	}
	// A success resets the run.
	b.Do(func() error { return nil })
	if got := b.Status().ConsecutiveFailures; got != 0 {
		t.Fatalf("failures after success = %d", got)
	}

	// Third consecutive failure in a fresh run opens the circuit.
	for i := 0; i < 3; i++ {
		b.Do(func() error { return errBoom })
	}
	if b.State() != Open {
		t.Fatalf("state after threshold = %v", b.State())
	}
	if err := b.Do(func() error { t.Fatal("op ran while open"); return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open call err = %v", err)
	}

	// Cooldown elapses → half-open; a successful probe closes it.
	clock.Advance(time.Minute)
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v", b.State())
	}

	want := []string{"dep:closed->open", "dep:open->half-open", "dep:half-open->closed"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	b.Do(func() error { return errBoom })
	if b.State() != Open {
		t.Fatalf("state = %v", b.State())
	}
	clock.Advance(time.Second)
	if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want Open", b.State())
	}
}

// TestBreakerHalfOpenSingleProbe races many goroutines against a half-open
// breaker and asserts exactly one is admitted while the probe is in flight
// (run under -race via make check).
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	b.Do(func() error { return errBoom })
	clock.Advance(time.Second)

	const goroutines = 16
	results := make(chan bool, goroutines)
	release := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		go func() {
			ok := b.Allow() == nil
			results <- ok
			if ok {
				// Hold the probe until every goroutine has tried Allow, so
				// no late Allow can observe a re-closed breaker.
				<-release
				b.Record(nil)
				close(done)
			}
		}()
	}
	admitted := 0
	for i := 0; i < goroutines; i++ {
		if <-results {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("admitted probes = %d, want exactly 1", admitted)
	}
	close(release)
	<-done
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
}

// TestBreakerIgnoresCancellation: a cancelled caller must not count against
// the dependency's health.
func TestBreakerIgnoresCancellation(t *testing.T) {
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1})
	b.Do(func() error { return context.Canceled })
	if b.State() != Closed {
		t.Fatalf("state after cancellation = %v, want Closed", b.State())
	}
}

// TestBreakerCancellationIsNeutral: a cancelled call is not a verified
// success either. It neither closes a half-open circuit nor resets a closed
// one's failure run; it only hands the probe slot back.
func TestBreakerCancellationIsNeutral(t *testing.T) {
	cancelled := fmt.Errorf("rpc: %w", context.Canceled)

	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	b.Do(func() error { return errBoom })
	clock.Advance(time.Second)
	if err := b.Do(func() error { return cancelled }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe err = %v", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after a cancelled probe = %v, want HalfOpen", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("the cancelled probe kept the probe slot: %v", err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("state after the answered probe = %v, want Closed", b.State())
	}

	b = NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 5})
	for i := 0; i < 4; i++ {
		b.Do(func() error { return errBoom })
	}
	b.Do(func() error { return cancelled })
	if got := b.Status().ConsecutiveFailures; got != 4 {
		t.Fatalf("failure run after a cancellation = %d, want 4", got)
	}
	b.Do(func() error { return errBoom })
	if b.State() != Open {
		t.Fatalf("state after 4 failures, a cancellation and a failure = %v, want Open", b.State())
	}
}
