package tenant

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"uniask/internal/vclock"
)

func ctxb(t *testing.T) context.Context {
	t.Helper()
	return context.Background()
}

func contextWithCancel() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

func overridesFromJSON(t *testing.T, js string) *Overrides {
	t.Helper()
	f, err := ParseFile([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return NewOverrides(f)
}

// TestAdmitRateLimit drives the token bucket on a virtual clock: burst
// admits, then shedding with a refill-derived Retry-After, then recovery
// after advancing the clock.
func TestAdmitRateLimit(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	ov := overridesFromJSON(t, `{"tenants": {"a": {"rate": 10, "burst": 2, "maxConcurrent": -1}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: -1, Clock: clk}, ov)

	for i := 0; i < 2; i++ {
		release, rej := ctrl.Admit(ctxb(t), "a")
		if rej != nil {
			t.Fatalf("burst request %d shed: %+v", i, rej)
		}
		release(time.Millisecond)
	}
	_, rej := ctrl.Admit(ctxb(t), "a")
	if rej == nil || rej.Reason != ReasonRate {
		t.Fatalf("third request in the same instant: rej = %+v, want %s", rej, ReasonRate)
	}
	if rej.RetryAfter <= 0 || rej.RetryAfter > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms] at 10 q/s", rej.RetryAfter)
	}

	clk.Advance(100 * time.Millisecond) // one token at 10 q/s
	release, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatalf("post-refill request shed: %+v", rej)
	}
	release(time.Millisecond)
}

func TestAdmitConcurrencyCap(t *testing.T) {
	ov := overridesFromJSON(t, `{"tenants": {"a": {"rate": -1, "maxConcurrent": 2}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: -1}, ov)

	r1, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatal(rej)
	}
	r2, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatal(rej)
	}
	if _, rej = ctrl.Admit(ctxb(t), "a"); rej == nil || rej.Reason != ReasonConcurrency {
		t.Fatalf("third concurrent request: rej = %+v, want %s", rej, ReasonConcurrency)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("concurrency rejection carries no Retry-After hint: %+v", rej)
	}
	r1(10 * time.Millisecond)
	r3, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatalf("after release the slot should be free again: %+v", rej)
	}
	r3(time.Millisecond)
	r2(time.Millisecond)

	st, ok := ctrl.StatsFor("a")
	if !ok {
		t.Fatal("no stats for tenant a")
	}
	if st.Admitted != 3 || st.Shed != 1 || st.ShedByReason[ReasonConcurrency] != 1 {
		t.Fatalf("stats = %+v, want 3 admitted / 1 shed by concurrency", st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after all releases", st.Inflight)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	ov := overridesFromJSON(t, `{"tenants": {"a": {"rate": -1, "maxConcurrent": 1}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: 4}, ov)
	release, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatal(rej)
	}
	release(time.Millisecond)
	release(time.Millisecond) // double release must not double-free
	st, _ := ctrl.StatsFor("a")
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d, want 0", st.Inflight)
	}
	// The global pool must not have grown past capacity: admit 4, 5th queues
	// or sheds rather than finding a phantom 5th slot.
	ovB := overridesFromJSON(t, `{"defaults": {"rate": -1, "maxConcurrent": -1}}`)
	ctrl = NewController(AdmissionConfig{Capacity: 1, QueueDepth: 1, MaxWait: time.Millisecond}, ovB)
	r1, _ := ctrl.Admit(ctxb(t), "a")
	r1(0)
	r1(0)
	r2, rej := ctrl.Admit(ctxb(t), "a")
	if rej != nil {
		t.Fatal(rej)
	}
	done := make(chan *Rejection, 1)
	go func() {
		_, rej := ctrl.Admit(ctxb(t), "a")
		done <- rej
	}()
	if rej := <-done; rej == nil {
		t.Fatal("double release minted an extra global slot")
	}
	r2(0)
}

// TestSaturationShedsBestEffortFirst fills the global slots, parks an
// interactive waiter, and checks a best-effort arrival is shed immediately
// while the interactive waiter is eventually granted.
func TestSaturationShedsBestEffortFirst(t *testing.T) {
	ov := overridesFromJSON(t, `{
		"defaults": {"rate": -1, "maxConcurrent": -1},
		"tenants": {"int": {}, "batch": {"class": "best-effort"}}
	}`)
	ctrl := NewController(AdmissionConfig{Capacity: 1, QueueDepth: 8, MaxWait: 5 * time.Second}, ov)

	holder, rej := ctrl.Admit(ctxb(t), "int")
	if rej != nil {
		t.Fatal(rej)
	}

	granted := make(chan func(time.Duration), 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, rej := ctrl.Admit(ctxb(t), "int")
		if rej != nil {
			t.Errorf("queued interactive request shed: %+v", rej)
			return
		}
		granted <- release
	}()

	// Wait until the interactive request is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := ctrl.StatsFor("int")
		if st.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Best-effort arrival while interactive work waits: shed immediately.
	_, rej = ctrl.Admit(ctxb(t), "batch")
	if rej == nil || rej.Reason != ReasonSaturated {
		t.Fatalf("best-effort under saturation: rej = %+v, want immediate %s", rej, ReasonSaturated)
	}
	if rej.Class != BestEffort {
		t.Fatalf("rejection class = %v", rej.Class)
	}

	holder(time.Millisecond) // frees the slot -> granted to the waiter
	release := <-granted
	release(time.Millisecond)
	wg.Wait()
}

// TestWFQGrantRatio queues both classes deep, then releases slots one by
// one: grants must follow the 4:1 weight ratio, and neither class may
// starve.
func TestWFQGrantRatio(t *testing.T) {
	ov := overridesFromJSON(t, `{
		"defaults": {"rate": -1, "maxConcurrent": -1},
		"tenants": {"int": {}, "batch": {"class": "best-effort"}}
	}`)
	ctrl := NewController(AdmissionConfig{
		Capacity: 1, QueueDepth: 32, MaxWait: time.Minute,
	}, ov)

	holder, rej := ctrl.Admit(ctxb(t), "int")
	if rej != nil {
		t.Fatal(rej)
	}

	// More interactive waiters than a 4:1 window holds, so strict priority
	// would starve best-effort for the whole window.
	const perClass = 16
	type grant struct {
		class   Class
		release func(time.Duration)
	}
	grants := make(chan grant, 2*perClass)
	var wg sync.WaitGroup
	enqueue := func(id string, class Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, rej := ctrl.Admit(context.Background(), id)
			if rej != nil {
				t.Errorf("%s shed: %+v", id, rej)
				return
			}
			grants <- grant{class: class, release: release}
		}()
	}
	// Best-effort must be parked first: a best-effort arrival is shed, not
	// queued, once interactive work is already waiting (tested separately in
	// TestSaturationShedsBestEffortFirst).
	waitQueued := func(id string, want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, _ := ctrl.StatsFor(id)
			if st.Queued == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s waiters never queued: %d/%d", id, st.Queued, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < perClass; i++ {
		enqueue("batch", BestEffort)
	}
	waitQueued("batch", perClass)
	for i := 0; i < perClass; i++ {
		enqueue("int", Interactive)
	}
	waitQueued("int", perClass)

	// Drain: release the held slot, then each granted request in turn. With
	// 4:1 weights and ties going to interactive, the grants run
	// I B IIII B IIII B IIII B until the interactive queue empties. Strict
	// priority, or any other ratio, gives a different order.
	holder(time.Millisecond)
	var order strings.Builder
	for i := 0; i < 2*perClass; i++ {
		g := <-grants
		if g.class == Interactive {
			order.WriteByte('I')
		} else {
			order.WriteByte('B')
		}
		g.release(time.Millisecond)
	}
	wg.Wait()

	const want = "IBIIIIBIIIIBIIIIB" + "III" + "BBBBBBBBBBBB"
	if got := order.String(); got != want {
		t.Fatalf("grant order %s, want %s (4:1 weights)", got, want)
	}
	// Both queues fully drained: no starvation.
	si, _ := ctrl.StatsFor("int")
	sb, _ := ctrl.StatsFor("batch")
	if si.Admitted != perClass+1 || sb.Admitted != perClass {
		t.Fatalf("admitted int=%d batch=%d, want %d/%d", si.Admitted, sb.Admitted, perClass+1, perClass)
	}
}

func TestQueueDepthBound(t *testing.T) {
	ov := overridesFromJSON(t, `{"defaults": {"rate": -1, "maxConcurrent": -1}, "tenants": {"a": {}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: 1, QueueDepth: 1, MaxWait: time.Minute}, ov)
	holder, _ := ctrl.Admit(ctxb(t), "a")

	queued := make(chan func(time.Duration), 1)
	go func() {
		release, rej := ctrl.Admit(ctxb(t), "a")
		if rej == nil {
			queued <- release
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := ctrl.StatsFor("a")
		if st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: next arrival sheds immediately.
	if _, rej := ctrl.Admit(ctxb(t), "a"); rej == nil || rej.Reason != ReasonSaturated {
		t.Fatalf("overflow arrival: rej = %+v, want %s", rej, ReasonSaturated)
	}
	holder(time.Millisecond)
	(<-queued)(time.Millisecond)
}

func TestQueueWaitTimeout(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	ov := overridesFromJSON(t, `{"defaults": {"rate": -1, "maxConcurrent": -1}, "tenants": {"a": {}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: 1, QueueDepth: 4, MaxWait: 100 * time.Millisecond, Clock: clk}, ov)
	holder, _ := ctrl.Admit(ctxb(t), "a")

	done := make(chan *Rejection, 1)
	go func() {
		_, rej := ctrl.Admit(ctxb(t), "a")
		done <- rej
	}()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never armed its timeout")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(101 * time.Millisecond)
	rej := <-done
	if rej == nil || rej.Reason != ReasonSaturated {
		t.Fatalf("timed-out waiter: rej = %+v, want %s", rej, ReasonSaturated)
	}
	// The abandoned waiter must not swallow the next grant: a release after
	// the timeout returns the slot to the free pool.
	holder(time.Millisecond)
	release, rej2 := ctrl.Admit(ctxb(t), "a")
	if rej2 != nil {
		t.Fatalf("slot leaked to an abandoned waiter: %+v", rej2)
	}
	release(time.Millisecond)
}

func TestAdmitContextCancel(t *testing.T) {
	ov := overridesFromJSON(t, `{"defaults": {"rate": -1, "maxConcurrent": -1}, "tenants": {"a": {}}}`)
	ctrl := NewController(AdmissionConfig{Capacity: 1, QueueDepth: 4, MaxWait: time.Minute}, ov)
	holder, _ := ctrl.Admit(ctxb(t), "a")

	ctx, cancel := contextWithCancel()
	done := make(chan *Rejection, 1)
	go func() {
		_, rej := ctrl.Admit(ctx, "a")
		done <- rej
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := ctrl.StatsFor("a")
		if st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if rej := <-done; rej == nil {
		t.Fatal("cancelled waiter was admitted")
	}
	holder(time.Millisecond)
}

func TestLimitsFloorsForUnconfiguredTenant(t *testing.T) {
	ctrl := NewController(AdmissionConfig{}, nil)
	lim := ctrl.limitsFor("anyone")
	if lim.RateLimit != DefaultRateLimit {
		t.Fatalf("rate floor = %v, want %v", lim.RateLimit, DefaultRateLimit)
	}
	if lim.MaxConcurrent != DefaultMaxConcurrent {
		t.Fatalf("concurrency floor = %v, want %v", lim.MaxConcurrent, DefaultMaxConcurrent)
	}
	if lim.Burst != int(2*DefaultRateLimit) {
		t.Fatalf("burst floor = %v, want %v", lim.Burst, 2*DefaultRateLimit)
	}
}
