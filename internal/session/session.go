// Package session is UniAsk's conversational layer: a bounded,
// tenant-scoped store of multi-turn conversations. Each session holds the
// turn history — question, answer, and the cited documents of every turn —
// that the history-aware query rewrite (llm.BuildRewritePrompt) and the
// click-feedback loop consume. The store is memory-bounded twice over:
// sessions expire after a TTL of inactivity, and a global LRU budget evicts
// the least-recently-touched session when the deployment as a whole holds
// too many. Both run on an injectable vclock.Clock so expiry is testable
// without sleeping.
//
// The store does not talk to the engine: the server layer runs turns
// through core.Engine.AskConversational and records the outcome here. That
// keeps the dependency arrow pointing one way (server → session, server →
// core) and the store trivially reusable by the chat CLI's in-process
// server.
package session

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uniask/internal/llm"
	"uniask/internal/vclock"
)

// DefaultTTL is how long an idle session survives before expiring.
const DefaultTTL = 30 * time.Minute

// DefaultMaxSessions is the global session budget used when Config leaves
// it zero.
const DefaultMaxSessions = 1024

// DefaultTenantSessions is the per-tenant live-session cap the server
// applies when the tenant's overrides entry does not set maxSessions.
const DefaultTenantSessions = 64

// DefaultMaxTurns bounds how many turns one session retains; older turns
// fall off the front (the rewrite prompt only ever consumes the recent
// tail anyway).
const DefaultMaxTurns = 32

// HistoryWindow is how many recent turns feed the rewrite prompt. Short on
// purpose: anaphora resolves against what was just said, and a bounded
// window keeps the rewrite call's token cost flat as conversations grow.
const HistoryWindow = 4

// TurnDoc is one cited document of a turn, kept so a later feedback call
// can resolve the click without re-running retrieval.
type TurnDoc struct {
	// ChunkID is the cited chunk in the index.
	ChunkID string
	// ParentID is the KB document the chunk belongs to.
	ParentID string
	// Title is the chunk's title at answer time.
	Title string
}

// Turn is one completed question/answer exchange.
type Turn struct {
	// Question is the user's raw question as asked.
	Question string
	// RewrittenQuery is the standalone query retrieval ran ("" when no
	// rewrite happened or it was shed).
	RewrittenQuery string
	// Answer is the answer shown to the user.
	Answer string
	// Documents are the documents shown alongside the answer, ranked.
	Documents []TurnDoc
	// TraceID links the turn to its span tree in /api/traces.
	TraceID string
	// Degraded and DegradedParts mirror the engine response's flags.
	Degraded      bool
	DegradedParts []string
}

// Session is one conversation. Snapshot value — the store hands out copies,
// never aliases into its own state.
type Session struct {
	// ID is the opaque session identifier.
	ID string
	// Tenant is the owning tenant.
	Tenant string
	// Turns is the retained history, oldest first.
	Turns []Turn
	// CreatedAt and LastActive are store-clock times.
	CreatedAt  time.Time
	LastActive time.Time
}

// History converts the session's recent turns into the rewrite prompt's
// exchange list (oldest first, at most HistoryWindow turns).
func (s *Session) History() []llm.Exchange {
	turns := s.Turns
	if len(turns) > HistoryWindow {
		turns = turns[len(turns)-HistoryWindow:]
	}
	out := make([]llm.Exchange, len(turns))
	for i, t := range turns {
		out[i] = llm.Exchange{Question: t.Question, Answer: t.Answer}
	}
	return out
}

// Config parameterizes a Store.
type Config struct {
	// TTL is the idle lifetime of a session (0 = DefaultTTL; negative
	// disables expiry).
	TTL time.Duration
	// MaxSessions is the global LRU budget (0 = DefaultMaxSessions).
	MaxSessions int
	// Clock drives expiry (nil = the wall clock).
	Clock vclock.Clock
}

// ErrNotFound is returned when a session ID does not exist (or has
// expired/been evicted — indistinguishable by design).
var ErrNotFound = fmt.Errorf("session: not found")

// ErrWrongTenant is returned when a session exists but belongs to a
// different tenant: one tenant must never read or extend another's
// conversation.
var ErrWrongTenant = fmt.Errorf("session: wrong tenant")

// ErrTenantBudget is returned by Create when the tenant is at its
// per-tenant session cap.
var ErrTenantBudget = fmt.Errorf("session: tenant session budget exhausted")

// entry is the store's mutable session record.
type entry struct {
	sess Session
	el   *list.Element // position in the LRU (front = most recent)
}

// StreamStats are the live-stream counters the dashboard's session gauge
// and the stuck-streams runbook read.
type StreamStats struct {
	// Open is the number of SSE streams currently open.
	Open int64
	// Opened and Closed count streams over the store's lifetime.
	Opened uint64
	Closed uint64
	// Heartbeats counts keep-alive comments written to idle streams.
	Heartbeats uint64
	// Disconnects counts streams that ended because the client went away
	// mid-turn (context canceled before the terminal event).
	Disconnects uint64
}

// Store holds the live sessions. Safe for concurrent use.
type Store struct {
	cfg Config

	mu        sync.Mutex
	entries   map[string]*entry
	lru       *list.List // of session IDs; front = most recently used
	seq       uint64
	expired   uint64
	evicted   uint64
	perTenant map[string]int // live sessions per tenant

	// stream counters live outside mu: the SSE layer bumps them on hot
	// write paths.
	open        atomic.Int64
	opened      atomic.Uint64
	closed      atomic.Uint64
	heartbeats  atomic.Uint64
	disconnects atomic.Uint64
}

// NewStore creates a session store.
func NewStore(cfg Config) *Store {
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	return &Store{
		cfg:       cfg,
		entries:   make(map[string]*entry),
		lru:       list.New(),
		perTenant: make(map[string]int),
	}
}

// Create opens a new session for tenant. maxForTenant caps the tenant's
// live sessions (0 = no per-tenant cap); at the cap the tenant's
// least-recently-active session is NOT evicted — creation fails with
// ErrTenantBudget, because silently dropping another live conversation to
// admit a new one turns a quota into data loss.
func (s *Store) Create(tenantID string, maxForTenant int) (Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	s.expireLocked(now)
	if maxForTenant > 0 && s.perTenant[tenantID] >= maxForTenant {
		return Session{}, ErrTenantBudget
	}
	s.seq++
	id := fmt.Sprintf("s%08x-%s", s.seq, strconv.FormatInt(now.UnixNano()&0xffffff, 16))
	e := &entry{sess: Session{
		ID: id, Tenant: tenantID, CreatedAt: now, LastActive: now,
	}}
	e.el = s.lru.PushFront(id)
	s.entries[id] = e
	s.perTenant[tenantID]++
	// Global budget: evict the least-recently-active session, whoever owns
	// it. The evicted conversation is gone — the next turn against its ID
	// gets ErrNotFound and the client starts a fresh session.
	for s.lru.Len() > s.cfg.MaxSessions {
		back := s.lru.Back()
		s.removeLocked(back.Value.(string), &s.evicted)
	}
	return e.sess.clone(), nil
}

// Get returns a snapshot of the session, refreshing its recency. The
// tenant must match the session's owner.
func (s *Store) Get(tenantID, id string) (Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.touchLocked(tenantID, id)
	if err != nil {
		return Session{}, err
	}
	return e.sess.clone(), nil
}

// AppendTurn records a completed turn, refreshing the session's recency.
func (s *Store) AppendTurn(tenantID, id string, t Turn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.touchLocked(tenantID, id)
	if err != nil {
		return err
	}
	e.sess.Turns = append(e.sess.Turns, t)
	if len(e.sess.Turns) > DefaultMaxTurns {
		e.sess.Turns = e.sess.Turns[len(e.sess.Turns)-DefaultMaxTurns:]
	}
	return nil
}

// touchLocked resolves an id for tenantID after expiry, bumps recency, and
// returns the live entry. Caller holds s.mu.
func (s *Store) touchLocked(tenantID, id string) (*entry, error) {
	now := s.cfg.Clock.Now()
	s.expireLocked(now)
	e, ok := s.entries[id]
	if !ok {
		return nil, ErrNotFound
	}
	if e.sess.Tenant != tenantID {
		return nil, ErrWrongTenant
	}
	e.sess.LastActive = now
	s.lru.MoveToFront(e.el)
	return e, nil
}

// expireLocked drops every session idle past the TTL. Caller holds s.mu.
// Lazy expiry on access keeps the store goroutine-free: with a virtual
// clock there is nothing to leak and nothing to race.
func (s *Store) expireLocked(now time.Time) {
	if s.cfg.TTL < 0 {
		return
	}
	// Walk from the LRU back: the first fresh session ends the scan.
	for {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := s.entries[back.Value.(string)]
		if now.Sub(e.sess.LastActive) <= s.cfg.TTL {
			return
		}
		s.removeLocked(e.sess.ID, &s.expired)
	}
}

// removeLocked deletes a session and bumps the given counter.
func (s *Store) removeLocked(id string, counter *uint64) {
	e, ok := s.entries[id]
	if !ok {
		return
	}
	s.lru.Remove(e.el)
	delete(s.entries, id)
	if n := s.perTenant[e.sess.Tenant] - 1; n > 0 {
		s.perTenant[e.sess.Tenant] = n
	} else {
		delete(s.perTenant, e.sess.Tenant)
	}
	*counter++
}

// clone deep-copies the snapshot the store hands out.
func (s Session) clone() Session {
	out := s
	out.Turns = make([]Turn, len(s.Turns))
	copy(out.Turns, s.Turns)
	for i := range out.Turns {
		docs := make([]TurnDoc, len(out.Turns[i].Documents))
		copy(docs, out.Turns[i].Documents)
		out.Turns[i].Documents = docs
		parts := make([]string, len(out.Turns[i].DegradedParts))
		copy(parts, out.Turns[i].DegradedParts)
		out.Turns[i].DegradedParts = parts
	}
	return out
}

// Stats is a point-in-time view of the store for the dashboard gauge.
type Stats struct {
	// Live is the number of live sessions.
	Live int
	// Turns is the total retained turn count across live sessions.
	Turns int
	// Expired and Evicted count sessions dropped by TTL and by the global
	// LRU budget respectively.
	Expired uint64
	Evicted uint64
	// Streams are the live SSE-stream counters.
	Streams StreamStats
}

// Stats snapshots the store (expiring stale sessions first, so the gauge
// never reports sessions that would vanish on their next touch).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	s.expireLocked(s.cfg.Clock.Now())
	st := Stats{
		Live:    len(s.entries),
		Expired: s.expired,
		Evicted: s.evicted,
	}
	for _, e := range s.entries {
		st.Turns += len(e.sess.Turns)
	}
	s.mu.Unlock()
	st.Streams = s.StreamStats()
	return st
}

// StreamStats snapshots the live-stream counters.
func (s *Store) StreamStats() StreamStats {
	return StreamStats{
		Open:        s.open.Load(),
		Opened:      s.opened.Load(),
		Closed:      s.closed.Load(),
		Heartbeats:  s.heartbeats.Load(),
		Disconnects: s.disconnects.Load(),
	}
}

// StreamOpened records an SSE stream opening.
func (s *Store) StreamOpened() { s.open.Add(1); s.opened.Add(1) }

// StreamClosed records a stream ending; disconnected marks a client that
// went away before the terminal event.
func (s *Store) StreamClosed(disconnected bool) {
	s.open.Add(-1)
	s.closed.Add(1)
	if disconnected {
		s.disconnects.Add(1)
	}
}

// StreamHeartbeat records one keep-alive comment written to an idle stream.
func (s *Store) StreamHeartbeat() { s.heartbeats.Add(1) }
