// Package llm provides the large-language-model substrate of UniAsk. The
// production system calls gpt-3.5-turbo through a chat-completion API for
// four tasks: grounded answer generation, document summarization, keyword
// extraction and related-query generation (the query-expansion variants).
//
// The substitute is SimLLM, a deterministic seeded simulator that performs
// each task with classical NLP over the prompt content: it extracts and
// cites the context sentences most relevant to the question, refuses when
// the context carries no signal, and injects the paper-calibrated failure
// modes (missing citations, off-context drift, clarification requests) that
// the guardrail experiments measure. Everything downstream — prompt
// construction, citation parsing, guardrails, rate limiting, load testing —
// is exercised exactly as with a hosted model.
package llm

import (
	"context"
	"errors"
)

// Role identifies a chat message author.
type Role string

// Chat roles.
const (
	System Role = "system"
	User   Role = "user"
)

// Message is one chat-completion message.
type Message struct {
	Role    Role
	Content string
}

// Request is a chat-completion request.
type Request struct {
	// Messages is the conversation so far.
	Messages []Message
	// MaxTokens caps the completion length (0 = default 1024).
	MaxTokens int
}

// Response is a chat-completion response.
type Response struct {
	// Content is the generated text.
	Content string
	// PromptTokens reports the prompt's size for rate limiting.
	PromptTokens int
}

// Client is the chat-completion interface (the shape of the Azure OpenAI
// chat API UniAsk calls).
type Client interface {
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrRateLimited is returned when the service-level token rate limit is
// exhausted (HTTP 429 equivalent).
var ErrRateLimited = errors.New("llm: rate limited")

// ErrEmptyPrompt is returned for a request with no messages.
var ErrEmptyPrompt = errors.New("llm: empty prompt")
