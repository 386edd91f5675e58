// Package vclock provides a clock abstraction with a real implementation
// and a virtual (manually advanced) one. The 60-minute load test of Figure 2,
// session expiry and retry back-off run on the virtual clock, so experiments
// that span hours of simulated time complete in milliseconds and remain
// fully deterministic.
package vclock

import (
	"sort"
	"sync"
	"time"
)

// Clock is the minimal clock interface UniAsk components depend on.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that fires once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a manually advanced clock. All waiters are released in
// timestamp order as Advance moves time forward.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtual returns a virtual clock starting at the given time.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel fires when Advance moves the
// clock past the deadline. A non-positive duration fires immediately.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.waiters = append(v.waiters, waiter{at: v.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// is reached, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.now = v.now.Add(d)
	now := v.now
	var due, rest []waiter
	for _, w := range v.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	v.waiters = rest
	v.mu.Unlock()

	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, w := range due {
		w.ch <- w.at
	}
}

// PendingWaiters reports how many timers are armed (diagnostics).
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}
