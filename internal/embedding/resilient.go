package embedding

// Context-aware, fallible embedding: the production embedder is a remote
// API (text-embedding-ada-002 behind Azure OpenAI), so its calls can fail,
// stall, or return garbage. CtxEmbedder is the remote-shaped interface the
// query path consumes; Resilient decorates any CtxEmbedder with retries, a
// circuit breaker, and response validation
// (a vector of the wrong dimensionality is an error, not a result — the
// retry-with-verification stance of eSapiens' DEREK module).

import (
	"context"
	"fmt"

	"uniask/internal/resilience"
	"uniask/internal/trace"
	"uniask/internal/vector"
)

// CtxEmbedder is a fallible, cancellable embedder — the shape of a remote
// embedding API.
type CtxEmbedder interface {
	// EmbedCtx returns the embedding of text, honoring ctx.
	EmbedCtx(ctx context.Context, text string) (vector.Vector, error)
	// Dim reports the embedding dimensionality.
	Dim() int
}

// Resilient decorates a CtxEmbedder with the resilience layer.
type Resilient struct {
	// Inner is the wrapped embedder.
	Inner CtxEmbedder
	// Policy is the retry policy (zero value = resilience defaults).
	Policy resilience.Policy
	// Breaker, when set, sheds calls while the embedding dependency is
	// down.
	Breaker *resilience.Breaker
}

// EmbedCtx implements CtxEmbedder: retries transient failures, validates
// the dimensionality of every response, and trips/obeys the breaker. On a
// traced request the call is one "embedding.embed" leaf span carrying the
// retry and breaker events.
func (r *Resilient) EmbedCtx(ctx context.Context, text string) (v vector.Vector, err error) {
	ctx, sp := trace.Start(ctx, "embedding.embed")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	return r.embedCtx(ctx, text)
}

func (r *Resilient) embedCtx(ctx context.Context, text string) (vector.Vector, error) {
	attempt := func(ctx context.Context) (vector.Vector, error) {
		v, err := r.Inner.EmbedCtx(ctx, text)
		if err != nil {
			return nil, err
		}
		if len(v) != r.Inner.Dim() {
			return nil, fmt.Errorf("embedding: malformed response: got %d dimensions, want %d", len(v), r.Inner.Dim())
		}
		return v, nil
	}
	if r.Breaker == nil {
		return resilience.DoValue(ctx, r.Policy, attempt)
	}
	return resilience.DoValue(ctx, r.Policy, func(ctx context.Context) (vector.Vector, error) {
		if err := r.Breaker.Allow(); err != nil {
			trace.AddEvent(ctx, "breaker.shed", trace.A("breaker", r.Breaker.Name()))
			return nil, err
		}
		v, err := attempt(ctx)
		r.Breaker.RecordCtx(ctx, err)
		return v, err
	})
}

// Dim implements CtxEmbedder.
func (r *Resilient) Dim() int { return r.Inner.Dim() }
