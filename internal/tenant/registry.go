package tenant

// Registry: tenant ID → fully assembled per-tenant engine. Each tenant
// gets its own knowledge base, index/shard facade, searcher and query
// cache partition; what is shared across tenants is the serving stack —
// the HTTP server, the admission controller, the tracer (tenant attribute
// on spans keeps per-tenant slices queryable) and the dashboard registry.
// Engines are built lazily on first use by the caller-provided factory, at
// most once per tenant even under concurrent first requests — except the
// default tenant's, which a one-bank deployment hands over already built
// (Single).

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"uniask/internal/core"
	"uniask/internal/search"
	"uniask/internal/trace"
)

// EngineFactory builds one tenant's engine from its effective limits —
// typically by deriving a per-tenant core.Config and ingesting the
// tenant's corpus. See StandardFactory.
type EngineFactory func(id string, lim Limits) (*core.Engine, error)

// ErrUnknownTenant is returned for tenants without an overrides entry:
// onboarding a bank is an explicit config change, not a side effect of a
// typoed header.
var ErrUnknownTenant = fmt.Errorf("tenant: unknown tenant")

// ErrNoTenant is returned when a request names no tenant and the registry
// has no default tenant to attribute it to.
var ErrNoTenant = errors.New("tenant: no tenant named")

// Registry maps tenant IDs to engines. Safe for concurrent use.
type Registry struct {
	ov      *Overrides
	factory EngineFactory

	// def is the default tenant's engine (nil = the registry has no default
	// tenant). Set once by Single, so reading it takes no lock.
	def *core.Engine

	// observe sees each engine once (see Observe).
	observe func(id string, eng *core.Engine)

	mu      sync.Mutex
	engines map[string]*regEntry
}

// regEntry builds the tenant's engine at most once, outside the registry
// lock (corpus ingestion is expensive; concurrent tenants must not
// serialize behind it).
type regEntry struct {
	once sync.Once
	eng  *core.Engine
	err  error
}

// NewRegistry creates a registry over an overrides store and a factory. It
// has no default tenant: every request must name one.
func NewRegistry(ov *Overrides, factory EngineFactory) *Registry {
	return &Registry{ov: ov, factory: factory, engines: make(map[string]*regEntry)}
}

// Single creates the registry of a one-bank deployment: exactly one engine,
// already built, under the default tenant. It has no overrides, so every
// named tenant is unknown to it.
func Single(eng *core.Engine) *Registry {
	return &Registry{def: eng}
}

// Overrides exposes the registry's limits store (nil when it has none).
func (r *Registry) Overrides() *Overrides { return r.ov }

// Check is the single tenant validation: nil when the registry serves id,
// ErrNoTenant when id is Default and there is no default tenant, the
// ValidateID error for a malformed id, ErrUnknownTenant for a well-formed
// one without an overrides entry.
func (r *Registry) Check(id string) error {
	if id == Default {
		if r.def == nil {
			return ErrNoTenant
		}
		return nil
	}
	if err := ValidateID(id); err != nil {
		return err
	}
	if r.ov == nil || !r.ov.Known(id) {
		return fmt.Errorf("%w %q (add it to the overrides file to onboard)", ErrUnknownTenant, id)
	}
	return nil
}

// Limits resolves a tenant's effective limits: its overrides entry overlaid
// on the defaults block. The default tenant has no entry and no envelope —
// unlimited rate, concurrency and sessions.
func (r *Registry) Limits(id string) Limits {
	if id == Default {
		return Limits{RateLimit: -1, MaxConcurrent: -1, MaxSessions: -1}
	}
	if r.ov == nil {
		return Limits{}
	}
	return r.ov.For(id)
}

// Engine returns the tenant's engine, building it on first use; the
// default tenant's is the one Single adopted. A tenant Check refuses is
// refused with the same error. A factory failure is not cached: the next
// request retries the build.
func (r *Registry) Engine(id string) (*core.Engine, error) {
	if err := r.Check(id); err != nil {
		return nil, err
	}
	if id == Default {
		return r.def, nil
	}
	r.mu.Lock()
	e, ok := r.engines[id]
	if !ok {
		e = &regEntry{}
		r.engines[id] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		eng, err := r.factory(id, r.Limits(id))
		if err == nil && r.observe != nil {
			r.observe(id, eng)
		}
		r.mu.Lock()
		e.eng, e.err = eng, err
		if err != nil && r.engines[id] == e {
			delete(r.engines, id) // allow a retry to rebuild
		}
		r.mu.Unlock()
	})
	return e.eng, e.err
}

// Observe registers fn to see every engine the registry serves, once each:
// right away those already built or adopted, and every later one as it is
// built, before its first request. Call it before serving.
func (r *Registry) Observe(fn func(id string, eng *core.Engine)) {
	r.observe = fn
	for _, t := range r.Active() {
		fn(t.ID, t.Engine)
	}
}

// ActiveTenant is one tenant whose engine exists.
type ActiveTenant struct {
	ID     string
	Engine *core.Engine
}

// Active lists the tenants with a built engine, sorted by ID (the default
// tenant, when there is one, first) — what gauges and health views read, so
// that a read-only endpoint never triggers an expensive onboarding.
func (r *Registry) Active() []ActiveTenant {
	var out []ActiveTenant
	if r.def != nil {
		out = append(out, ActiveTenant{Default, r.def})
	}
	r.mu.Lock()
	for id, e := range r.engines {
		if e.eng != nil {
			out = append(out, ActiveTenant{id, e.eng})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// StandardFactory derives tenant engines from one base configuration,
// applying each tenant's engine-shape limits:
//
//   - the query cache becomes the tenant's partition from the shared pool
//     (CacheShare entries; negative share disables caching for the tenant),
//   - MaxFanout caps the engine's retrieval fan-out workers,
//   - the shared tracer replaces per-engine tracers so every tenant's
//     spans land in one queryable store,
//   - TraceSampleRate is enforced per request by the server (the tracer is
//     shared), not here.
func StandardFactory(base core.Config, pool *search.CachePool, tracer *trace.Tracer) EngineFactory {
	return func(id string, lim Limits) (*core.Engine, error) {
		cfg := base
		if tracer != nil {
			cfg.Tracer = tracer
		}
		if pool != nil {
			cfg.QueryCache = pool.Partition(id, lim.CacheShare)
			if cfg.QueryCache == nil {
				cfg.QueryCacheCapacity = -1 // tenant opted out of caching
			}
		}
		if lim.MaxFanout > 0 && (cfg.SearchWorkers <= 0 || lim.MaxFanout < cfg.SearchWorkers) {
			cfg.SearchWorkers = lim.MaxFanout
		}
		return core.New(cfg), nil
	}
}
