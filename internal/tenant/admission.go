package tenant

// Admission control: the front door every multi-tenant query passes before
// it may touch an engine. Three gates, cheapest first:
//
//  1. Per-tenant token bucket — the sustained rate limit. A tenant
//     flooding at 50× its configured rate has ~98% of its arrivals shed
//     right here, each with a Retry-After computed from the bucket's
//     refill, before they can occupy memory or a queue slot.
//  2. Per-tenant concurrency cap — the isolation bound. However fast a
//     tenant's admitted requests arrive, it can hold at most MaxConcurrent
//     engine slots, so a well-behaved neighbor always finds capacity.
//  3. Global slots with weighted fair queueing — the engine's total
//     concurrency budget. When every slot is busy, arrivals wait in one
//     FIFO per priority class; freed slots are granted to the class with
//     the least weighted service (interactive outweighs best-effort
//     DefaultInteractiveWeight:DefaultBestEffortWeight), so interactive
//     latency stays flat under best-effort backlogs while queued
//     best-effort work still drains. Saturation sheds best-effort first:
//     a best-effort arrival is rejected immediately whenever interactive
//     work is already waiting, and either class is rejected when its queue
//     is full or the bounded wait expires.
//
// Every rejection carries a machine-readable reason and a Retry-After
// hint; the HTTP layer maps rejections to 429 — never 5xx — so clients
// can distinguish "slow down" from "broken".

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"uniask/internal/vclock"
)

// Defaults for the zero AdmissionConfig.
const (
	// DefaultCapacity is the global concurrent-query budget.
	DefaultCapacity = 64
	// DefaultQueueDepth bounds each class's wait queue.
	DefaultQueueDepth = 64
	// DefaultMaxWait bounds how long an admitted-but-queued request waits
	// for a slot before it is shed.
	DefaultMaxWait = 500 * time.Millisecond
	// DefaultInteractiveWeight and DefaultBestEffortWeight set the weighted-
	// fair-queueing grant ratio between the classes.
	DefaultInteractiveWeight = 4
	// DefaultBestEffortWeight — see DefaultInteractiveWeight.
	DefaultBestEffortWeight = 1
	// DefaultRateLimit and DefaultBurst apply to tenants whose effective
	// limits leave the rate unset (0): a conservative floor so an
	// unconfigured tenant cannot flood.
	DefaultRateLimit = 50
	// DefaultMaxConcurrent caps an unconfigured tenant's in-flight queries.
	DefaultMaxConcurrent = 8
)

// AdmissionConfig parameterizes a Controller. The zero value uses the
// defaults above and the wall clock.
type AdmissionConfig struct {
	// Capacity is the global concurrent-query budget (0 = DefaultCapacity;
	// negative = unlimited, queueing never happens).
	Capacity int
	// QueueDepth bounds each priority class's wait queue (0 =
	// DefaultQueueDepth).
	QueueDepth int
	// MaxWait is how long a queued request may wait for a slot before it
	// is shed (0 = DefaultMaxWait).
	MaxWait time.Duration
	// Clock supplies time for buckets and wait timers (nil = wall clock);
	// tests inject a vclock.Virtual for deterministic refill.
	Clock vclock.Clock
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Capacity == 0 {
		c.Capacity = DefaultCapacity
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxWait <= 0 {
		c.MaxWait = DefaultMaxWait
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	return c
}

// Reason classifies a rejection.
type Reason string

// Rejection reasons, in gate order.
const (
	// ReasonRate: the tenant's token bucket is empty — it exceeded its
	// sustained rate limit.
	ReasonRate Reason = "rate-limit"
	// ReasonConcurrency: the tenant is already running MaxConcurrent
	// queries.
	ReasonConcurrency Reason = "tenant-concurrency"
	// ReasonSaturated: the engine's global slots are busy and the request
	// could not be queued (best-effort behind waiting interactive work, a
	// full class queue) or its bounded queue wait expired.
	ReasonSaturated Reason = "saturated"
)

// Rejection is one shed request: who, why, and when to come back. The
// server maps it to HTTP 429 with a Retry-After header.
type Rejection struct {
	Tenant     string
	Class      Class
	Reason     Reason
	RetryAfter time.Duration
}

// bucket is a token bucket advanced lazily on access.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time, then takes one token if available;
// otherwise it reports the wait until the next token. rate <= 0 means
// unlimited. burst is the bucket capacity.
func (b *bucket) take(now time.Time, rate float64, burst float64) (ok bool, wait time.Duration) {
	if rate <= 0 {
		return true, 0
	}
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+rate*dt.Seconds())
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rate
	return false, time.Duration(need * float64(time.Second))
}

// tenantState is the controller's per-tenant accounting.
type tenantState struct {
	bucket   bucket
	inflight int
	window   latencyWindow

	admitted uint64
	queued   uint64
	shed     map[Reason]uint64
}

// waiter is one queued request awaiting a slot grant.
type waiter struct {
	tenant string
	grant  chan struct{} // closed by the granter after transferring the slot
	gone   bool          // abandoned (timeout/cancel); skip on grant
}

// Controller is the admission front door. Create with NewController; one
// Controller fronts one engine process, across all its tenants.
type Controller struct {
	cfg AdmissionConfig
	ov  *Overrides

	mu      sync.Mutex
	free    int
	tenants map[string]*tenantState
	queues  [numClasses][]*waiter
	// vtime implements weighted fair queueing: each grant to a class costs
	// 1/weight; the next grant goes to the non-empty class with the lowest
	// accumulated cost, so service converges to the weight ratio.
	vtime [numClasses]float64
}

// NewController creates the front door over an overrides store (nil ov
// applies the package defaults to every tenant).
func NewController(cfg AdmissionConfig, ov *Overrides) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:     cfg,
		ov:      ov,
		free:    cfg.Capacity,
		tenants: make(map[string]*tenantState),
	}
}

// limitsFor resolves effective limits, applying the hard floors for
// unset values so an unconfigured tenant is never unlimited.
func (c *Controller) limitsFor(id string) Limits {
	var l Limits
	if c.ov != nil {
		l = c.ov.For(id)
	}
	if l.RateLimit == 0 {
		l.RateLimit = DefaultRateLimit
	}
	if l.Burst <= 0 {
		l.Burst = int(math.Max(1, 2*l.RateLimit))
	}
	if l.MaxConcurrent == 0 {
		l.MaxConcurrent = DefaultMaxConcurrent
	}
	return l
}

func (c *Controller) state(id string) *tenantState {
	st, ok := c.tenants[id]
	if !ok {
		st = &tenantState{shed: make(map[Reason]uint64)}
		c.tenants[id] = st
	}
	return st
}

// Admit runs the three admission gates for one request of the tenant. On
// success it returns a release closure (call exactly once, when the
// request finishes, with the request's latency for the tenant's p99
// gauge) and a nil rejection. On shed it returns a nil release and the
// rejection. Blocking is bounded by MaxWait and by ctx.
func (c *Controller) Admit(ctx context.Context, id string) (release func(latency time.Duration), rej *Rejection) {
	lim := c.limitsFor(id)
	now := c.cfg.Clock.Now()

	c.mu.Lock()
	st := c.state(id)

	// Gate 1: rate limit.
	if ok, wait := st.bucket.take(now, lim.RateLimit, float64(lim.Burst)); !ok {
		st.shed[ReasonRate]++
		c.mu.Unlock()
		return nil, &Rejection{Tenant: id, Class: lim.Class, Reason: ReasonRate, RetryAfter: wait}
	}

	// Gate 2: per-tenant concurrency.
	if lim.MaxConcurrent > 0 && st.inflight >= lim.MaxConcurrent {
		st.shed[ReasonConcurrency]++
		c.mu.Unlock()
		// One in-flight query has to finish first; its expected residual
		// time is unknowable here, so hint the tenant's recent p99.
		hint := st.window.p99()
		if hint <= 0 {
			hint = 50 * time.Millisecond
		}
		return nil, &Rejection{Tenant: id, Class: lim.Class, Reason: ReasonConcurrency, RetryAfter: hint}
	}

	// Gate 3: global slots.
	if c.cfg.Capacity < 0 || c.free > 0 {
		if c.cfg.Capacity >= 0 {
			c.free--
		}
		st.inflight++
		st.admitted++
		c.mu.Unlock()
		return c.releaseFunc(id), nil
	}

	// Saturated. Best-effort sheds first: it never queues behind waiting
	// interactive work.
	class := lim.Class
	if class == BestEffort && len(c.queues[Interactive]) > 0 {
		st.shed[ReasonSaturated]++
		c.mu.Unlock()
		return nil, &Rejection{Tenant: id, Class: class, Reason: ReasonSaturated, RetryAfter: c.cfg.MaxWait}
	}
	if len(c.queues[class]) >= c.cfg.QueueDepth {
		st.shed[ReasonSaturated]++
		c.mu.Unlock()
		return nil, &Rejection{Tenant: id, Class: class, Reason: ReasonSaturated, RetryAfter: c.cfg.MaxWait}
	}
	w := &waiter{tenant: id, grant: make(chan struct{})}
	c.queues[class] = append(c.queues[class], w)
	st.queued++
	c.mu.Unlock()

	select {
	case <-w.grant:
		// The granter already moved the slot to us and bumped inflight.
		return c.releaseFunc(id), nil
	case <-c.cfg.Clock.After(c.cfg.MaxWait):
	case <-ctx.Done():
	}
	// Timed out or abandoned: mark the waiter gone so a racing grant is
	// re-dispatched instead of leaking the slot.
	c.mu.Lock()
	select {
	case <-w.grant:
		// Grant won the race after all; keep the slot.
		c.mu.Unlock()
		return c.releaseFunc(id), nil
	default:
	}
	w.gone = true
	st = c.state(id)
	st.shed[ReasonSaturated]++
	c.mu.Unlock()
	return nil, &Rejection{Tenant: id, Class: class, Reason: ReasonSaturated, RetryAfter: c.cfg.MaxWait}
}

// releaseFunc builds the slot-release closure for an admitted request.
func (c *Controller) releaseFunc(id string) func(latency time.Duration) {
	var once sync.Once
	return func(latency time.Duration) {
		once.Do(func() {
			c.mu.Lock()
			st := c.state(id)
			st.inflight--
			if latency > 0 {
				st.window.add(latency)
			}
			c.grantNextLocked()
			c.mu.Unlock()
		})
	}
}

// grantNextLocked hands the freed slot to the next waiter by weighted fair
// queueing, or returns it to the free pool. Caller holds c.mu.
func (c *Controller) grantNextLocked() {
	if c.cfg.Capacity < 0 {
		return // unlimited: no slots to hand over
	}
	for {
		class, ok := c.pickClassLocked()
		if !ok {
			c.free++
			return
		}
		w := c.queues[class][0]
		c.queues[class] = c.queues[class][1:]
		c.vtime[class] += 1 / float64(weight(class))
		if w.gone {
			continue // abandoned waiter: try the next one
		}
		st := c.state(w.tenant)
		st.inflight++
		st.admitted++
		close(w.grant)
		return
	}
}

func weight(cl Class) int {
	if cl == Interactive {
		return DefaultInteractiveWeight
	}
	return DefaultBestEffortWeight
}

// pickClassLocked returns the non-empty class queue with the least
// weighted service so far.
func (c *Controller) pickClassLocked() (Class, bool) {
	best, found := Interactive, false
	for cl := Class(0); cl < numClasses; cl++ {
		if len(c.queues[cl]) == 0 {
			continue
		}
		if !found || c.vtime[cl] < c.vtime[best] {
			best, found = cl, true
		}
	}
	return best, found
}

// TenantStats is one tenant's admission gauge row.
type TenantStats struct {
	// Tenant is the tenant ID; Class its current priority class.
	Tenant string
	Class  Class
	// Admitted, Queued and Shed count lifetime outcomes; ShedByReason
	// breaks Shed down by gate.
	Admitted uint64
	Queued   uint64
	Shed     uint64
	// ShedByReason maps ReasonRate/ReasonConcurrency/ReasonSaturated to
	// their counts.
	ShedByReason map[Reason]uint64
	// Inflight is the tenant's current in-flight queries; P99 its recent
	// request latency (over the last latencyWindowSize requests).
	Inflight int
	P99      time.Duration
	// RateLimit and MaxConcurrent echo the effective limits, so the
	// dashboard shows the envelope next to the consumption.
	RateLimit     float64
	MaxConcurrent int
}

// Stats snapshots every tenant the controller has seen, sorted by ID.
func (c *Controller) Stats() []TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantStats, 0, len(c.tenants))
	for id, st := range c.tenants {
		lim := c.limitsFor(id)
		row := TenantStats{
			Tenant: id, Class: lim.Class,
			Admitted: st.admitted, Queued: st.queued,
			ShedByReason: make(map[Reason]uint64, len(st.shed)),
			Inflight:     st.inflight, P99: st.window.p99(),
			RateLimit: lim.RateLimit, MaxConcurrent: lim.MaxConcurrent,
		}
		for r, n := range st.shed {
			row.ShedByReason[r] = n
			row.Shed += n
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// StatsFor returns one tenant's row (zero row, false when never seen).
func (c *Controller) StatsFor(id string) (TenantStats, bool) {
	for _, row := range c.Stats() {
		if row.Tenant == id {
			return row, true
		}
	}
	return TenantStats{}, false
}
