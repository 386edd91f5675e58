package faulty

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"uniask/internal/embedding"
	"uniask/internal/llm"
)

func drawKinds(s *Schedule, n int) []Kind {
	out := make([]Kind, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	a := drawKinds(NewSchedule(7, 0.3, 0.1, 0.1, 0.1), 50)
	b := drawKinds(NewSchedule(7, 0.3, 0.1, 0.1, 0.1), 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault sequences")
	}
	c := drawKinds(NewSchedule(8, 0.3, 0.1, 0.1, 0.1), 50)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical fault sequences")
	}
}

func TestScheduleRates(t *testing.T) {
	s := NewSchedule(1, 0.3, 0, 0.1, 0)
	n := 5000
	drawKinds(s, n)
	counts := s.Counts()
	if got := float64(counts[Error]) / float64(n); got < 0.25 || got > 0.35 {
		t.Fatalf("error rate = %.3f, want ≈0.30", got)
	}
	if got := float64(counts[Hang]) / float64(n); got < 0.07 || got > 0.13 {
		t.Fatalf("hang rate = %.3f, want ≈0.10", got)
	}
	if s.Calls() != n {
		t.Fatalf("calls = %d", s.Calls())
	}
}

func TestScriptThenOK(t *testing.T) {
	s := Script(Error, Hang)
	got := drawKinds(s, 4)
	want := []Kind{Error, Hang, OK, OK}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("script sequence = %v, want %v", got, want)
	}
}

func TestClientFaults(t *testing.T) {
	inner := llm.NewSim(llm.DefaultBehavior())
	req := llm.Request{Messages: []llm.Message{{Role: llm.User, Content: "Riassumi: la carta si blocca dal portale."}}}

	c := &Client{Inner: inner, Sched: Script(Error)}
	if _, err := c.Complete(context.Background(), req); !errors.Is(err, ErrInjected) {
		t.Fatalf("error fault: %v", err)
	}

	// Hang blocks until the context is cancelled.
	c = &Client{Inner: inner, Sched: Script(Hang)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Complete(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang fault: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatalf("hang returned before ctx cancellation")
	}

	// Malformed still succeeds but with corrupted content.
	c = &Client{Inner: inner, Sched: Script(Malformed)}
	resp, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("malformed fault errored: %v", err)
	}
	if !strings.HasPrefix(resp.Content, "<<<!garbled") {
		t.Fatalf("malformed response = %+v", resp)
	}

	// OK passes through.
	c = &Client{Inner: inner, Sched: Script()}
	if _, err := c.Complete(context.Background(), req); err != nil {
		t.Fatalf("ok fault: %v", err)
	}
}

func TestEmbedderFaults(t *testing.T) {
	inner := embedding.NewSynth(32, nil)
	e := &Embedder{Inner: inner, Sched: Script(Error, Malformed, OK)}

	if _, err := e.EmbedCtx(context.Background(), "carta di credito"); !errors.Is(err, ErrInjected) {
		t.Fatalf("error fault: %v", err)
	}
	v, err := e.EmbedCtx(context.Background(), "carta di credito")
	if err != nil {
		t.Fatalf("malformed fault errored: %v", err)
	}
	if len(v) == e.Dim() {
		t.Fatalf("malformed fault returned a well-formed vector (dim %d)", len(v))
	}
	v, err = e.EmbedCtx(context.Background(), "carta di credito")
	if err != nil || len(v) != e.Dim() {
		t.Fatalf("ok call = %d dims, %v", len(v), err)
	}
}
