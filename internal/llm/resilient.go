package llm

// ResilientClient decorates any Client with the resilience layer: retries
// with capped-exponential backoff and deterministic jitter, per-attempt
// timeouts, and a per-dependency circuit breaker. This is the wrapper the
// engine installs between the pipeline and the hosted chat-completion
// service, so a flaky or briefly-down LLM costs retries and eventually a
// fast-failing open circuit — never a wedged query.

import (
	"context"
	"errors"

	"uniask/internal/resilience"
	"uniask/internal/trace"
)

// ClassifyLLMError is the retry classification for chat-completion errors:
// rate limits and unknown upstream failures are transient; a structurally
// bad request, a cancelled caller, or an open breaker is terminal.
func ClassifyLLMError(err error) resilience.Class {
	switch {
	case errors.Is(err, ErrEmptyPrompt):
		return resilience.Terminal
	case errors.Is(err, ErrRateLimited):
		return resilience.Retryable
	}
	return resilience.DefaultClassify(err)
}

// ResilientClient wraps a Client with retry + circuit-breaker behavior. On
// the happy path it adds one function call and no allocation.
type ResilientClient struct {
	// Inner is the wrapped chat-completion client.
	Inner Client
	// Policy is the retry policy; its Classify defaults to
	// ClassifyLLMError when nil.
	Policy resilience.Policy
	// Breaker, when set, guards the dependency: calls are shed with
	// resilience.ErrBreakerOpen while it is open, and every attempt's
	// outcome feeds its failure counter.
	Breaker *resilience.Breaker
}

// Complete implements Client: a stream nobody listens to.
func (c *ResilientClient) Complete(ctx context.Context, req Request) (Response, error) {
	return c.CompleteStream(ctx, req, nil)
}

// CompleteStream implements StreamClient, and is the one retry/breaker loop
// (a nil emit is a plain completion). On a traced request the whole call —
// every retry attempt, breaker shed and breaker transition included — is
// one "llm.complete" leaf span. Retries apply only before the first byte:
// once a chunk has been emitted downstream the consumer has seen partial
// output, so a replay would duplicate it — any later failure is marked
// terminal and surfaces to the caller, who degrades to the extractive
// fallback instead.
func (c *ResilientClient) CompleteStream(ctx context.Context, req Request, emit func(chunk string) error) (resp Response, err error) {
	ctx, sp := trace.Start(ctx, "llm.complete")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	p := c.Policy
	if p.Classify == nil {
		p.Classify = ClassifyLLMError
	}
	started := false
	return resilience.DoValue(ctx, p, func(ctx context.Context) (Response, error) {
		if c.Breaker != nil {
			if err := c.Breaker.Allow(); err != nil {
				trace.AddEvent(ctx, "breaker.shed", trace.A("breaker", c.Breaker.Name()))
				return Response{}, err
			}
		}
		wrapped := emit
		if wrapped != nil {
			wrapped = func(chunk string) error {
				started = true
				return emit(chunk)
			}
		}
		resp, err := CompleteStream(ctx, c.Inner, req, wrapped)
		if c.Breaker != nil {
			c.Breaker.RecordCtx(ctx, err)
		}
		if err != nil && started {
			err = resilience.MarkTerminal(err)
		}
		return resp, err
	})
}
