// Package faulty provides fault-injection wrappers for UniAsk's
// remote-shaped dependencies — the chat-completion client and the embedder.
// A seeded Schedule decides, call by call, whether the wrapped dependency
// answers normally, errors, answers slowly, hangs until the caller's
// context is cancelled, or returns a malformed response. The chaos test
// suite drives full queries through engines assembled over these wrappers
// and asserts that the resilience layer keeps the system available.
//
// Schedules are deterministic: the same seed and rates produce the same
// fault sequence, so a chaos failure reproduces with its seed.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"uniask/internal/llm"
	"uniask/internal/vector"
)

// Kind is one injected fault type.
type Kind int

// Fault kinds.
const (
	// OK passes the call through untouched.
	OK Kind = iota
	// Error fails the call immediately with ErrInjected.
	Error
	// Slow delays the call by the schedule's SlowLatency, then passes it
	// through.
	Slow
	// Hang blocks until the caller's context is cancelled (the stuck
	// upstream connection that only a deadline can cut).
	Hang
	// Malformed passes the call through but corrupts the response (garbage
	// content for the LLM, a wrong-dimension vector for the embedder).
	Malformed
)

// String names the kind for counters and test output.
func (k Kind) String() string {
	switch k {
	case OK:
		return "ok"
	case Error:
		return "error"
	case Slow:
		return "slow"
	case Hang:
		return "hang"
	case Malformed:
		return "malformed"
	}
	return "unknown"
}

// ErrInjected is the upstream failure the Error fault returns.
var ErrInjected = errors.New("faulty: injected upstream error")

// Schedule decides the fault for each call. Construct with NewSchedule
// (rate-driven, seeded) or Script (explicit sequence). Safe for concurrent
// use; concurrent callers draw from one shared deterministic sequence.
type Schedule struct {
	// SlowLatency is the delay the Slow fault adds (default 20ms).
	SlowLatency time.Duration

	mu     sync.Mutex
	rng    *rand.Rand
	script []Kind // when non-empty, consumed before the rng takes over
	rates  [4]float64
	counts map[Kind]int
}

// NewSchedule builds a rate-driven schedule: each call independently draws
// Error with errorRate, Slow with slowRate, Hang with hangRate, Malformed
// with malformedRate (rates summing above 1 saturate in that order), OK
// otherwise. The seed fixes the whole sequence.
func NewSchedule(seed int64, errorRate, slowRate, hangRate, malformedRate float64) *Schedule {
	return &Schedule{
		SlowLatency: 20 * time.Millisecond,
		rng:         rand.New(rand.NewSource(seed)),
		rates:       [4]float64{errorRate, slowRate, hangRate, malformedRate},
		counts:      make(map[Kind]int),
	}
}

// Script builds a schedule that injects exactly the given kinds in order,
// then answers OK forever — the tool for provoking precise breaker
// transitions in tests.
func Script(kinds ...Kind) *Schedule {
	return &Schedule{
		SlowLatency: 20 * time.Millisecond,
		rng:         rand.New(rand.NewSource(1)),
		script:      append([]Kind(nil), kinds...),
		counts:      make(map[Kind]int),
	}
}

// next draws the fault for one call.
func (s *Schedule) next() Kind {
	s.mu.Lock()
	defer s.mu.Unlock()
	var k Kind
	if len(s.script) > 0 {
		k = s.script[0]
		s.script = s.script[1:]
	} else {
		x := s.rng.Float64()
		switch {
		case x < s.rates[0]:
			k = Error
		case x < s.rates[0]+s.rates[1]:
			k = Slow
		case x < s.rates[0]+s.rates[1]+s.rates[2]:
			k = Hang
		case x < s.rates[0]+s.rates[1]+s.rates[2]+s.rates[3]:
			k = Malformed
		default:
			k = OK
		}
	}
	s.counts[k]++
	return k
}

// Counts reports how many calls drew each fault kind so far.
func (s *Schedule) Counts() map[Kind]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Calls reports the total number of scheduled calls.
func (s *Schedule) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.counts {
		n += v
	}
	return n
}

// Client wraps an llm.Client with fault injection.
type Client struct {
	// Inner is the real client answering OK/Slow/Malformed calls.
	Inner llm.Client
	// Sched drives the fault sequence.
	Sched *Schedule
}

// Complete implements llm.Client.
func (c *Client) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	switch c.Sched.next() {
	case Error:
		return llm.Response{}, fmt.Errorf("%w (llm)", ErrInjected)
	case Slow:
		select {
		case <-time.After(c.Sched.SlowLatency):
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	case Hang:
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	case Malformed:
		resp, err := c.Inner.Complete(ctx, req)
		if err != nil {
			return resp, err
		}
		// A truncated, citation-free burst of the kind a flaky gateway
		// produces; downstream parsing must survive it.
		resp.Content = "<<<!garbled upstream payload§ " + truncate(resp.Content, 12)
		return resp, nil
	}
	return c.Inner.Complete(ctx, req)
}

// streamFailAfterChunks is how many chunks an Error fault lets through
// before killing a stream — enough that the consumer has rendered partial
// output, so the mid-stream failure path (no retry, extractive fallback) is
// what gets exercised, not the pre-first-byte retry path.
const streamFailAfterChunks = 2

// CompleteStream implements llm.StreamClient. The Error fault is injected
// mid-stream: a few chunks of the real completion are emitted first, then
// the stream dies with ErrInjected — the partially-delivered answer a
// dropped upstream connection produces. Hang blocks before the first byte;
// Slow delays then streams; Malformed streams the garbled payload.
func (c *Client) CompleteStream(ctx context.Context, req llm.Request, emit func(chunk string) error) (llm.Response, error) {
	switch c.Sched.next() {
	case Error:
		emitted := 0
		_, err := llm.CompleteStream(ctx, c.Inner, req, func(chunk string) error {
			if emitted >= streamFailAfterChunks {
				return fmt.Errorf("%w (llm stream)", ErrInjected)
			}
			emitted++
			if emit == nil {
				return nil
			}
			return emit(chunk)
		})
		if err != nil {
			return llm.Response{}, err
		}
		// The completion was shorter than the failure point; kill it anyway.
		return llm.Response{}, fmt.Errorf("%w (llm stream)", ErrInjected)
	case Slow:
		select {
		case <-time.After(c.Sched.SlowLatency):
		case <-ctx.Done():
			return llm.Response{}, ctx.Err()
		}
	case Hang:
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	case Malformed:
		resp, err := c.Inner.Complete(ctx, req)
		if err != nil {
			return resp, err
		}
		resp.Content = "<<<!garbled upstream payload§ " + truncate(resp.Content, 12)
		if emit != nil {
			if err := emit(resp.Content); err != nil {
				return llm.Response{}, err
			}
		}
		return resp, nil
	}
	return llm.CompleteStream(ctx, c.Inner, req, emit)
}

// Embedder wraps a context-aware embedder with fault injection. It
// implements embedding.CtxEmbedder (and the Dim accessor).
type Embedder struct {
	// Inner answers the non-faulty calls.
	Inner interface {
		EmbedCtx(ctx context.Context, text string) (vector.Vector, error)
		Dim() int
	}
	// Sched drives the fault sequence.
	Sched *Schedule
}

// EmbedCtx implements embedding.CtxEmbedder.
func (e *Embedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	switch e.Sched.next() {
	case Error:
		return nil, fmt.Errorf("%w (embedding)", ErrInjected)
	case Slow:
		select {
		case <-time.After(e.Sched.SlowLatency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case Hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case Malformed:
		v, err := e.Inner.EmbedCtx(ctx, text)
		if err != nil {
			return nil, err
		}
		if len(v) > 1 {
			v = v[:len(v)/2] // wrong dimensionality: the resilient wrapper must catch it
		}
		return v, nil
	}
	return e.Inner.EmbedCtx(ctx, text)
}

// Dim implements embedding.CtxEmbedder.
func (e *Embedder) Dim() int { return e.Inner.Dim() }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
