package session

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"uniask/internal/vclock"
)

func newVirtualStore(cfg Config) (*Store, *vclock.Virtual) {
	clk := vclock.NewVirtual(time.Unix(1700000000, 0))
	cfg.Clock = clk
	return NewStore(cfg), clk
}

func TestCreateGetAppend(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	sess, err := s.Create("banca", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" || sess.Tenant != "banca" {
		t.Fatalf("created session %+v", sess)
	}
	if err := s.AppendTurn("banca", sess.ID, Turn{Question: "q1", Answer: "a1"}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("banca", sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Turns) != 1 || got.Turns[0].Question != "q1" {
		t.Fatalf("turns = %+v", got.Turns)
	}
	// Snapshots are deep copies: mutating one must not touch the store.
	got.Turns[0].Answer = "mutated"
	again, _ := s.Get("banca", sess.ID)
	if again.Turns[0].Answer != "a1" {
		t.Fatal("snapshot aliases store state")
	}
}

func TestTenantIsolation(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	sess, _ := s.Create("banca-a", 0)
	if _, err := s.Get("banca-b", sess.ID); !errors.Is(err, ErrWrongTenant) {
		t.Fatalf("cross-tenant get: %v", err)
	}
	if err := s.AppendTurn("banca-b", sess.ID, Turn{}); !errors.Is(err, ErrWrongTenant) {
		t.Fatalf("cross-tenant append: %v", err)
	}
}

func TestTTLExpiryOnVirtualClock(t *testing.T) {
	s, clk := newVirtualStore(Config{TTL: 10 * time.Minute})
	sess, _ := s.Create("banca", 0)

	// Touches inside the TTL keep the session alive indefinitely.
	for i := 0; i < 5; i++ {
		clk.Advance(9 * time.Minute)
		if _, err := s.Get("banca", sess.ID); err != nil {
			t.Fatalf("touch %d: %v", i, err)
		}
	}
	// One idle gap past the TTL expires it.
	clk.Advance(10*time.Minute + time.Second)
	if _, err := s.Get("banca", sess.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired get: %v", err)
	}
	if st := s.Stats(); st.Expired != 1 || st.Live != 0 {
		t.Fatalf("stats after expiry: %+v", st)
	}
}

func TestNegativeTTLDisablesExpiry(t *testing.T) {
	s, clk := newVirtualStore(Config{TTL: -1})
	sess, _ := s.Create("banca", 0)
	clk.Advance(1000 * time.Hour)
	if _, err := s.Get("banca", sess.ID); err != nil {
		t.Fatalf("get after 1000h with expiry disabled: %v", err)
	}
}

func TestGlobalLRUEviction(t *testing.T) {
	s, clk := newVirtualStore(Config{MaxSessions: 3})
	ids := make([]string, 4)
	for i := 0; i < 3; i++ {
		sess, err := s.Create("banca", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.ID
		clk.Advance(time.Second)
	}
	// Touch the oldest so the middle one becomes LRU.
	if _, err := s.Get("banca", ids[0]); err != nil {
		t.Fatal(err)
	}
	sess, err := s.Create("banca", 0)
	if err != nil {
		t.Fatal(err)
	}
	ids[3] = sess.ID

	if _, err := s.Get("banca", ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU session should be evicted: %v", err)
	}
	for _, id := range []string{ids[0], ids[2], ids[3]} {
		if _, err := s.Get("banca", id); err != nil {
			t.Fatalf("session %s should survive: %v", id, err)
		}
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d", st.Evicted)
	}
}

func TestPerTenantBudgetRejectsNotEvicts(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	var first Session
	for i := 0; i < 2; i++ {
		sess, err := s.Create("capped", 2)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sess
		}
	}
	// At the cap: creation is rejected, and critically the tenant's live
	// conversations are untouched (a quota must not become data loss).
	if _, err := s.Create("capped", 2); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("over-budget create: %v", err)
	}
	if _, err := s.Get("capped", first.ID); err != nil {
		t.Fatalf("existing session lost on rejected create: %v", err)
	}
	// Another tenant is unaffected by the first one's budget.
	if _, err := s.Create("other", 2); err != nil {
		t.Fatal(err)
	}
}

func TestPerTenantBudgetFreesOnExpiry(t *testing.T) {
	s, clk := newVirtualStore(Config{TTL: time.Minute})
	if _, err := s.Create("banca", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("banca", 1); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("expected budget rejection, got %v", err)
	}
	clk.Advance(2 * time.Minute)
	if _, err := s.Create("banca", 1); err != nil {
		t.Fatalf("create after expiry freed the budget: %v", err)
	}
}

func TestMaxTurnsBounded(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	sess, _ := s.Create("banca", 0)
	for i := 0; i < DefaultMaxTurns+3; i++ {
		if err := s.AppendTurn("banca", sess.ID, Turn{Question: fmt.Sprintf("q%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Get("banca", sess.ID)
	if len(got.Turns) != DefaultMaxTurns {
		t.Fatalf("retained %d turns, want %d", len(got.Turns), DefaultMaxTurns)
	}
	if got.Turns[0].Question != "q3" || got.Turns[DefaultMaxTurns-1].Question != fmt.Sprintf("q%d", DefaultMaxTurns+2) {
		t.Fatalf("retained turns %q .. %q", got.Turns[0].Question, got.Turns[DefaultMaxTurns-1].Question)
	}
}

func TestHistoryWindow(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	sess, _ := s.Create("banca", 0)
	for i := 0; i < HistoryWindow+3; i++ {
		s.AppendTurn("banca", sess.ID, Turn{Question: fmt.Sprintf("q%d", i), Answer: fmt.Sprintf("a%d", i)})
	}
	got, _ := s.Get("banca", sess.ID)
	h := got.History()
	if len(h) != HistoryWindow {
		t.Fatalf("history window = %d, want %d", len(h), HistoryWindow)
	}
	if h[len(h)-1].Question != fmt.Sprintf("q%d", HistoryWindow+2) {
		t.Fatalf("newest history entry = %q", h[len(h)-1].Question)
	}
}

func TestStreamCounters(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	s.StreamOpened()
	s.StreamOpened()
	s.StreamHeartbeat()
	s.StreamClosed(false)
	s.StreamClosed(true)
	st := s.StreamStats()
	if st.Open != 0 || st.Opened != 2 || st.Closed != 2 || st.Heartbeats != 1 || st.Disconnects != 1 {
		t.Fatalf("stream stats: %+v", st)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s, _ := newVirtualStore(Config{})
	a, _ := s.Create("banca-a", 0)
	s.Create("banca-b", 0)
	s.AppendTurn("banca-a", a.ID, Turn{Question: "q"})
	st := s.Stats()
	if st.Live != 2 || st.Turns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PerTenant["banca-a"] != 1 || st.PerTenant["banca-b"] != 1 {
		t.Fatalf("per-tenant: %+v", st.PerTenant)
	}
}
