package tenant

// Per-tenant overrides, after the limits/overrides machinery of
// multi-tenant observability backends (Grafana Tempo's per-tenant
// overrides module is the proven shape): a defaults block every tenant
// inherits, per-tenant entries that override individual fields, and a
// runtime store that hot-reloads the file — atomically swapping in a new
// good configuration, and keeping the last good one (while logging) when
// the file is malformed. Admission reads the store on every request, so
// rate/class/concurrency changes apply to in-flight traffic immediately;
// engine-shape fields (cache share, fan-out, trace sampling) apply to
// tenants onboarded after the reload (see Registry).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Limits is one tenant's resource envelope. The zero value defers every
// field to the defaults block; a defaults-block zero means "engine
// default" (documented per field).
type Limits struct {
	// RateLimit is the sustained admission rate in queries/second enforced
	// by a token bucket (0 = inherit; negative = unlimited).
	RateLimit float64 `json:"rate"`
	// Burst is the token-bucket capacity: how many queries may arrive
	// back-to-back before the sustained rate bites (0 = inherit, with an
	// ultimate default of max(1, 2×rate)).
	Burst int `json:"burst"`
	// MaxConcurrent caps the tenant's in-flight queries; arrivals beyond it
	// are shed with 429 (0 = inherit; negative = uncapped). This is the
	// primary noisy-neighbor isolation bound: a flooding tenant can occupy
	// at most MaxConcurrent engine slots no matter how fast it sends.
	MaxConcurrent int `json:"maxConcurrent"`
	// CacheShare is the tenant's query-cache partition size in entries
	// (0 = inherit; negative = no cache). Partitions are disjoint LRUs, so
	// one tenant's traffic can never evict another's entries.
	CacheShare int `json:"cacheShare"`
	// MaxFanout bounds the tenant engine's retrieval fan-out workers —
	// BM25 + per-field ANN legs, and the per-shard scatter — per query
	// (0 = inherit; ultimately the engine default of one per CPU).
	MaxFanout int `json:"maxFanout"`
	// TraceSampleRate is the tenant's head-sampling probability in (0, 1]
	// (0 = inherit, ultimately the tracer's configured rate).
	TraceSampleRate float64 `json:"traceSampleRate"`
	// MaxSessions caps the tenant's live conversational sessions (0 =
	// inherit; negative = uncapped; ultimate default
	// session.DefaultTenantSessions). Creating a session beyond the cap is
	// rejected with 429, like any other quota.
	MaxSessions int `json:"maxSessions"`
	// Class is the tenant's priority class: "interactive" (default, also
	// when the key is absent) or "best-effort".
	Class Class `json:"class"`
}

// overlay returns l with every zero field replaced by the default's value.
// Class has no zero sentinel in the file (absent = interactive), so a
// per-tenant entry always carries its own class.
func (l Limits) overlay(def Limits) Limits {
	if l.RateLimit == 0 {
		l.RateLimit = def.RateLimit
	}
	if l.Burst == 0 {
		l.Burst = def.Burst
	}
	if l.MaxConcurrent == 0 {
		l.MaxConcurrent = def.MaxConcurrent
	}
	if l.CacheShare == 0 {
		l.CacheShare = def.CacheShare
	}
	if l.MaxFanout == 0 {
		l.MaxFanout = def.MaxFanout
	}
	if l.TraceSampleRate == 0 {
		l.TraceSampleRate = def.TraceSampleRate
	}
	if l.MaxSessions == 0 {
		l.MaxSessions = def.MaxSessions
	}
	return l
}

// validate rejects limits no deployment can mean: NaN-ish rates and
// malformed bursts are configuration mistakes that must fail the reload.
func (l Limits) validate(who string) error {
	if l.RateLimit != l.RateLimit { // NaN
		return fmt.Errorf("tenant: %s: rate is NaN", who)
	}
	if l.Burst < 0 {
		return fmt.Errorf("tenant: %s: negative burst %d", who, l.Burst)
	}
	if l.TraceSampleRate < 0 || l.TraceSampleRate > 1 {
		return fmt.Errorf("tenant: %s: traceSampleRate %v outside [0,1]", who, l.TraceSampleRate)
	}
	return nil
}

// File is the overrides file schema:
//
//	{
//	  "defaults": {"rate": 50, "burst": 100, "maxConcurrent": 8, "cacheShare": 128},
//	  "tenants": {
//	    "banca-alfa":  {"rate": 200, "maxConcurrent": 16},
//	    "banca-batch": {"class": "best-effort", "rate": 20}
//	  }
//	}
//
// Unknown keys anywhere fail the parse — and a failed parse keeps the
// previous configuration serving.
type File struct {
	Defaults Limits            `json:"defaults"`
	Tenants  map[string]Limits `json:"tenants"`
}

// ParseFile decodes and validates an overrides file.
func ParseFile(data []byte) (File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("tenant: overrides: %w", err)
	}
	if err := f.Defaults.validate("defaults"); err != nil {
		return File{}, err
	}
	for id, l := range f.Tenants {
		if err := ValidateID(id); err != nil {
			return File{}, err
		}
		if err := l.validate("tenant " + id); err != nil {
			return File{}, err
		}
	}
	return f, nil
}

// Overrides is the runtime limits store the admission controller and the
// registry read. Safe for concurrent use; Reload swaps atomically.
type Overrides struct {
	mu       sync.RWMutex
	defaults Limits
	tenants  map[string]Limits
	version  uint64 // bumps on every successful reload
	path     string
	modTime  time.Time

	// Log receives reload diagnostics ("" ok); nil discards. Set before
	// Watch. Signature matches log.Printf / testing.T.Logf.
	Log func(format string, args ...any)
}

// NewOverrides creates a store from an already-parsed file.
func NewOverrides(f File) *Overrides {
	o := &Overrides{}
	o.install(f)
	return o
}

// LoadOverrides reads, parses and installs an overrides file; the path is
// remembered for Reload/Watch.
func LoadOverrides(path string) (*Overrides, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: overrides: %w", err)
	}
	f, err := ParseFile(data)
	if err != nil {
		return nil, err
	}
	o := NewOverrides(f)
	o.path = path
	if st, err := os.Stat(path); err == nil {
		o.modTime = st.ModTime()
	}
	return o, nil
}

func (o *Overrides) install(f File) {
	tenants := make(map[string]Limits, len(f.Tenants))
	for id, l := range f.Tenants {
		tenants[id] = l
	}
	o.mu.Lock()
	o.defaults = f.Defaults
	o.tenants = tenants
	o.version++
	o.mu.Unlock()
}

func (o *Overrides) logf(format string, args ...any) {
	o.mu.RLock()
	logf := o.Log
	o.mu.RUnlock()
	if logf != nil {
		logf(format, args...)
	}
}

// Version is the successful-reload counter — gauges expose it so operators
// can confirm a pushed overrides change actually took.
func (o *Overrides) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// For resolves a tenant's effective limits: its entry overlaid on the
// defaults (unlisted tenants get the defaults verbatim).
func (o *Overrides) For(id string) Limits {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if l, ok := o.tenants[id]; ok {
		return l.overlay(o.defaults)
	}
	return o.defaults
}

// Known reports whether the tenant has an explicit overrides entry.
func (o *Overrides) Known(id string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.tenants[id]
	return ok
}

// TenantIDs lists the explicitly configured tenants, sorted.
func (o *Overrides) TenantIDs() []string {
	o.mu.RLock()
	ids := make([]string, 0, len(o.tenants))
	for id := range o.tenants {
		ids = append(ids, id)
	}
	o.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Reload re-reads the remembered path. On any error — unreadable file,
// malformed JSON, failed validation — the last good configuration stays
// installed and serving; the error is logged and returned. Traffic is
// never dropped by a bad reload.
func (o *Overrides) Reload() error {
	o.mu.RLock()
	path := o.path
	o.mu.RUnlock()
	if path == "" {
		return fmt.Errorf("tenant: overrides: no file path to reload from")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		o.logf("tenant: overrides reload failed, keeping last good config: %v", err)
		return err
	}
	f, err := ParseFile(data)
	if err != nil {
		o.logf("tenant: overrides reload failed, keeping last good config: %v", err)
		return err
	}
	o.install(f)
	o.logf("tenant: overrides reloaded from %s (version %d, %d tenants)", path, o.Version(), len(f.Tenants))
	return nil
}

// Watch polls the file's mtime every interval and Reloads on change, until
// ctx is cancelled. Run it on its own goroutine; reload failures are
// logged and leave the last good configuration serving.
func (o *Overrides) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			o.mu.RLock()
			path, last := o.path, o.modTime
			o.mu.RUnlock()
			if path == "" {
				return
			}
			st, err := os.Stat(path)
			if err != nil {
				o.logf("tenant: overrides watch: %v", err)
				continue
			}
			if st.ModTime().Equal(last) {
				continue
			}
			o.mu.Lock()
			o.modTime = st.ModTime()
			o.mu.Unlock()
			o.Reload() // logs its own outcome; last-good kept on failure
		}
	}
}
