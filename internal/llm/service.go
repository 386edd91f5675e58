package llm

import (
	"context"
	"sync"
	"time"

	"uniask/internal/textproc"
	"uniask/internal/vclock"
)

// ServiceConfig configures the hosted-LLM service wrapper: a token-bucket
// rate limit (the quota the paper sizes with the Figure-2 load test),
// driven by a Clock so load tests can run on virtual time.
type ServiceConfig struct {
	// TokensPerMinute is the sustained token throughput the service grants.
	// Zero disables rate limiting.
	TokensPerMinute int
	// BurstTokens is the bucket capacity (defaults to one minute's worth).
	BurstTokens int
	// Clock defaults to the real clock.
	Clock vclock.Clock
}

// Service wraps a Client with rate limiting — the "LLM Hosting Service"
// resource of the deployment architecture.
type Service struct {
	cfg   ServiceConfig
	inner Client

	mu       sync.Mutex
	tokens   float64
	lastFill time.Time
}

// NewService wraps inner with the given config.
func NewService(inner Client, cfg ServiceConfig) *Service {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.BurstTokens <= 0 {
		cfg.BurstTokens = cfg.TokensPerMinute
	}
	return &Service{
		cfg:      cfg,
		inner:    inner,
		tokens:   float64(cfg.BurstTokens),
		lastFill: cfg.Clock.Now(),
	}
}

// acquire takes n tokens from the bucket, reporting whether the request is
// admitted. The bucket refills continuously at TokensPerMinute.
func (s *Service) acquire(n int) bool {
	if s.cfg.TokensPerMinute <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	elapsed := now.Sub(s.lastFill)
	if elapsed > 0 {
		s.tokens += elapsed.Minutes() * float64(s.cfg.TokensPerMinute)
		if s.tokens > float64(s.cfg.BurstTokens) {
			s.tokens = float64(s.cfg.BurstTokens)
		}
		s.lastFill = now
	}
	if s.tokens < float64(n) {
		return false
	}
	s.tokens -= float64(n)
	return true
}

// Complete implements Client. A request whose token demand exceeds the
// remaining quota fails immediately with ErrRateLimited (the HTTP 429 the
// load test counts as a failed query — UniAsk is an open system with no
// admission queue).
func (s *Service) Complete(ctx context.Context, req Request) (Response, error) {
	demand := textproc.ApproxTokens(promptText(req))
	maxTok := req.MaxTokens
	if maxTok <= 0 {
		maxTok = 1024
	}
	demand += maxTok / 4 // expected completion share, reserved up front

	if !s.acquire(demand) {
		return Response{}, ErrRateLimited
	}

	resp, err := s.inner.Complete(ctx, req)
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}
