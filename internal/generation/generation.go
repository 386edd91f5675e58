// Package generation implements UniAsk's answer-generation module (§5): it
// takes the top-m chunks returned by the retrieval module, builds the
// task prompt (background context, JSON-formatted context, repeated
// citation instructions), queries the LLM through the chat-completion
// interface, and parses the citations back out of the generated text.
package generation

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"uniask/internal/llm"
	"uniask/internal/resilience"
)

// RetrievedChunk is one context chunk handed over by the search module.
type RetrievedChunk struct {
	// ID is the chunk id in the index.
	ID string
	// Title and Content are the retrievable fields shown to the LLM.
	Title   string
	Content string
}

// Answer is a generated response.
type Answer struct {
	// Text is the generated answer.
	Text string
	// Citations holds the chunk IDs the answer cites (resolved from the
	// [docN] keys).
	Citations []string
	// CitedKeys holds the raw [key] identifiers found in the text.
	CitedKeys []string
	// Usage is the underlying LLM usage.
	Usage llm.Response
	// Degraded reports that the LLM was unavailable and this answer is the
	// extractive fallback built from the top retrieved chunk.
	Degraded bool
}

// DefaultM is the number of context chunks in the current deployment.
const DefaultM = 4

// Generator produces grounded answers.
type Generator struct {
	// Client is the chat-completion backend.
	Client llm.Client
}

// Generate builds the prompt for question over chunks and returns the
// parsed answer: GenerateStream with nobody listening.
func (g *Generator) Generate(ctx context.Context, question string, chunks []RetrievedChunk) (Answer, error) {
	return g.GenerateStream(ctx, question, chunks, nil)
}

// GenerateStream builds the prompt for question over chunks (chunks beyond
// DefaultM are dropped, matching the deployment), delivers answer chunks through
// emit as the LLM produces them (nil emit = no streaming) and returns the
// parsed answer whole. Once emit has run the fallback contract widens — a
// stream that dies after its first byte cannot be retried (the consumer
// has already rendered partial output), so any mid-stream failure with the
// caller still waiting degrades to the extractive answer. The caller is
// responsible for telling its consumer to discard the partial tokens
// (the SSE layer's terminal `fallback` event).
func (g *Generator) GenerateStream(ctx context.Context, question string, chunks []RetrievedChunk, emit func(chunk string) error) (Answer, error) {
	if len(chunks) > DefaultM {
		chunks = chunks[:DefaultM]
	}
	ctxChunks := make([]llm.ContextChunk, len(chunks))
	keyToID := make(map[string]string, len(chunks))
	for i, ch := range chunks {
		key := fmt.Sprintf("doc%d", i+1)
		ctxChunks[i] = llm.ContextChunk{Key: key, Title: ch.Title, Content: ch.Content}
		keyToID[key] = ch.ID
	}
	req := llm.BuildAnswerPrompt(question, ctxChunks)
	started := false
	wrapped := emit
	if wrapped != nil {
		wrapped = func(chunk string) error {
			started = true
			return emit(chunk)
		}
	}
	resp, err := llm.CompleteStream(ctx, g.Client, req, wrapped)
	if err != nil {
		if ctx.Err() == nil && (started || llmUnavailable(err)) {
			return Extractive(question, chunks), nil
		}
		return Answer{}, fmt.Errorf("generation: %w", err)
	}
	keys := ExtractCitationKeys(resp.Content)
	ans := Answer{Text: resp.Content, CitedKeys: keys, Usage: resp}
	for _, k := range keys {
		if id, ok := keyToID[k]; ok {
			ans.Citations = append(ans.Citations, id)
		}
	}
	return ans, nil
}

// llmUnavailable reports whether a generation error means the LLM is
// unavailable (open breaker or exhausted retry budget): with the caller
// still waiting, such an error degrades to the extractive answer — a
// cancelled caller gets its cancellation back.
func llmUnavailable(err error) bool {
	return errors.Is(err, resilience.ErrBreakerOpen) || errors.Is(err, resilience.ErrBudgetExhausted)
}

// FallbackPreamble opens every extractive fallback answer (Italian, like
// the deployment): it tells the user the assistant is unavailable and the
// text below is quoted from the most relevant document.
const FallbackPreamble = "L'assistente non è al momento disponibile. Riportiamo il passaggio più pertinente dalla documentazione:"

// Extractive builds the graceful-degradation answer used when the LLM is
// unavailable: a verbatim snippet of the top retrieved chunk, cited as
// [doc1]. Quoting the context verbatim keeps the answer grounded — it
// passes the citation and ROUGE guardrails by construction. With no chunks
// at all there is nothing to quote; the uncited preamble alone is returned
// and the citation guardrail downstream turns it into the apology message.
func Extractive(question string, chunks []RetrievedChunk) Answer {
	if len(chunks) == 0 {
		return Answer{Text: FallbackPreamble, Degraded: true}
	}
	top := chunks[0]
	snippet := extractSnippet(top.Content, 400)
	var b strings.Builder
	b.WriteString(FallbackPreamble)
	b.WriteString("\n\n")
	if top.Title != "" {
		b.WriteString(top.Title)
		b.WriteString(": ")
	}
	b.WriteString(snippet)
	b.WriteString(" [doc1]")
	return Answer{
		Text:      b.String(),
		Citations: []string{top.ID},
		CitedKeys: []string{"doc1"},
		Degraded:  true,
	}
}

// extractSnippet truncates text to at most max bytes on a sentence boundary
// when one exists, else on a word boundary.
func extractSnippet(text string, max int) string {
	text = strings.TrimSpace(text)
	if len(text) <= max {
		return text
	}
	cut := text[:max]
	if i := strings.LastIndexByte(cut, '.'); i > max/2 {
		return cut[:i+1]
	}
	if i := strings.LastIndexByte(cut, ' '); i > 0 {
		cut = cut[:i]
	}
	return cut + "…"
}

// ExtractCitationKeys scans text for [key] citations and returns the keys
// in order of first appearance, deduplicated. Only bracketed tokens that
// look like citation keys (letters+digits, no spaces) are accepted.
func ExtractCitationKeys(text string) []string {
	var keys []string
	seen := map[string]bool{}
	for i := 0; i < len(text); i++ {
		if text[i] != '[' {
			continue
		}
		end := strings.IndexByte(text[i:], ']')
		if end < 0 {
			break
		}
		key := text[i+1 : i+end]
		if isCitationKey(key) && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
		i += end
	}
	return keys
}

// isCitationKey accepts short alphanumeric identifiers like "doc1".
func isCitationKey(s string) bool {
	if s == "" || len(s) > 32 {
		return false
	}
	hasLetter, hasDigit := false, false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
			hasLetter = true
		case r >= '0' && r <= '9':
			hasDigit = true
		default:
			return false
		}
	}
	return hasLetter && hasDigit
}
