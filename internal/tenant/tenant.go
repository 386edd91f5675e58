// Package tenant turns the single-tenant UniAsk engine into "one engine,
// many banks": tenant-scoped knowledge bases and indexes behind a shared
// serving stack, per-tenant overrides (rate limit, concurrency cap, query
// cache share, retrieval fan-out, trace sample rate) loaded from a
// hot-reloadable config file, and an admission-control front door — token
// bucket rate limiting plus weighted fair queueing across two priority
// classes, with load shedding that rejects best-effort tenants first when
// the engine saturates.
//
// The three pieces compose but stand alone:
//
//   - Overrides is the limits store: defaults plus per-tenant entries,
//     reloaded from JSON on file change (a bad file keeps the last good
//     configuration and logs; traffic is never dropped by a reload).
//   - Controller is the front door: Admit either grants a slot (call the
//     returned release when the request finishes) or returns a Rejection
//     carrying the HTTP-ready Retry-After hint. Shed requests are 429s by
//     construction, never 5xx.
//   - Registry maps tenant IDs to fully assembled per-tenant engines, each
//     with its own index, searcher and query-cache partition, built lazily
//     by the caller's factory. A one-bank deployment is the registry that
//     holds one pre-built engine under the default tenant.
package tenant

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Default is the default tenant's ID: the tenant a request that names none
// resolves to. A one-bank deployment serves it alone (Single); a registry
// without a default tenant refuses such a request.
const Default = ""

// ValidateID checks a tenant identifier: non-empty, at most 64 bytes, and
// limited to letters, digits, '-', '_' and '.' so IDs are safe in URLs,
// file names, span attributes and log lines without escaping.
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("tenant: empty tenant id")
	}
	if len(id) > 64 {
		return fmt.Errorf("tenant: id %q longer than 64 bytes", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant: id %q contains %q (allowed: letters, digits, - _ .)", id, r)
		}
	}
	return nil
}

// Class is a tenant's priority class. When the engine saturates,
// best-effort tenants are shed before interactive ones; the admission
// queues are drained by weighted fair queueing so a backlog of interactive
// work cannot starve queued best-effort requests entirely.
type Class int

// Priority classes, highest first.
const (
	// Interactive is the default class: human-facing traffic that queues
	// ahead of best-effort work and is shed last.
	Interactive Class = iota
	// BestEffort marks batch/background tenants: first to shed under
	// saturation, admitted through the weighted share otherwise.
	BestEffort

	numClasses = 2
)

// String returns the class's config-file spelling.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case BestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass parses a config-file class name ("" = Interactive).
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interactive":
		return Interactive, nil
	case "best-effort", "besteffort", "batch":
		return BestEffort, nil
	}
	return Interactive, fmt.Errorf("tenant: unknown class %q (want interactive or best-effort)", s)
}

// MarshalText and UnmarshalText make a Class travel as its config-file
// spelling in JSON; an unknown name fails the decode.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

func (c *Class) UnmarshalText(text []byte) (err error) {
	*c, err = ParseClass(string(text))
	return err
}

// latencyWindow keeps the most recent request latencies of one tenant for
// quantile gauges. Bounded, overwriting oldest; safe under the owner's lock.
type latencyWindow struct {
	buf  []time.Duration
	next int
	full bool
}

const latencyWindowSize = 512

func (w *latencyWindow) add(d time.Duration) {
	if w.buf == nil {
		w.buf = make([]time.Duration, latencyWindowSize)
	}
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.next == 0 {
		w.full = true
	}
}

// p99 returns the 99th-percentile latency over the window (0 when empty).
func (w *latencyWindow) p99() time.Duration { return w.quantile(0.99) }

func (w *latencyWindow) quantile(q float64) time.Duration {
	n := w.next
	if w.full {
		n = len(w.buf)
	}
	if n == 0 {
		return 0
	}
	s := make([]time.Duration, n)
	copy(s, w.buf[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(n-1))
	return s[idx]
}

// P99 of a latency sample, nearest-rank on the sorted sample: the helper
// the multitenant example and the noisy-neighbour benchmark share, so both
// report the quantile the same way.
func P99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(0.99*float64(len(s)-1))]
}
