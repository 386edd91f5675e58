package llm_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"uniask/internal/faulty"
	"uniask/internal/llm"
	"uniask/internal/resilience"
)

// TestCompleteIsCompleteStreamNilEmit pins the delegation: over the same
// fault script, ResilientClient.Complete and CompleteStream with a nil emit
// return the same responses and error classes, make the same number of
// attempts against the dependency and drive the breaker through the same
// transitions (open on the failure burst, half-open after the cooldown,
// closed again on the probe).
func TestCompleteIsCompleteStreamNilEmit(t *testing.T) {
	script := []faulty.Kind{
		faulty.OK, faulty.Error, faulty.OK, faulty.Malformed,
		faulty.Error, faulty.Error, faulty.Error, faulty.OK,
	}
	type rig struct {
		client      *llm.ResilientClient
		sched       *faulty.Schedule
		transitions []string
	}
	newRig := func() *rig {
		r := &rig{sched: faulty.Script(script...)}
		r.client = &llm.ResilientClient{
			Inner:  &faulty.Client{Inner: llm.NewSim(llm.DefaultBehavior()), Sched: r.sched},
			Policy: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
			Breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Name: "llm", FailureThreshold: 3, Cooldown: time.Millisecond,
				OnStateChange: func(_ string, from, to resilience.State) {
					r.transitions = append(r.transitions, from.String()+">"+to.String())
				},
			}),
		}
		return r
	}
	plain, stream := newRig(), newRig()
	req := llm.Request{Messages: []llm.Message{{Role: llm.User, Content: "Riassumi: il bonifico estero richiede l'IBAN."}}}
	for i := 0; i < 6; i++ {
		if i == 4 {
			time.Sleep(5 * time.Millisecond) // let both breakers cool down into half-open
		}
		a, aerr := plain.client.Complete(context.Background(), req)
		b, berr := stream.client.CompleteStream(context.Background(), req, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("call %d: Complete = %+v, CompleteStream(nil) = %+v", i, a, b)
		}
		for _, class := range []error{nil, faulty.ErrInjected, resilience.ErrBudgetExhausted, resilience.ErrBreakerOpen} {
			if errors.Is(aerr, class) != errors.Is(berr, class) || (aerr == nil) != (berr == nil) {
				t.Fatalf("call %d: Complete err = %v, CompleteStream(nil) err = %v", i, aerr, berr)
			}
		}
		if plain.sched.Calls() != stream.sched.Calls() {
			t.Fatalf("call %d: %d attempts via Complete, %d via CompleteStream(nil)", i, plain.sched.Calls(), stream.sched.Calls())
		}
	}
	if !reflect.DeepEqual(plain.transitions, stream.transitions) {
		t.Fatalf("breaker transitions: Complete %v, CompleteStream(nil) %v", plain.transitions, stream.transitions)
	}
	if len(plain.transitions) < 3 {
		t.Fatalf("breaker transitions = %v: the script never opened and re-closed the breaker", plain.transitions)
	}
}
