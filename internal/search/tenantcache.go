package search

// Tenant-keyed query-cache partitioning. Multi-tenant serving must not let
// one tenant's traffic evict another's cached rankings, so instead of one
// shared LRU the pool hands each tenant its own QueryCache partition with
// its own entry budget. Isolation is structural: partitions share no LRU
// list, no entry map and no delete-journal cursor, so a flood of tenant-A
// queries (or an A-side ingest rotating A's stats snapshot) cannot touch a
// single tenant-B entry — proven by TestCachePoolPartitionIsolation.
//
// The pool also keeps the aggregate bounded: partition shares draw down a
// total entry budget, and a share request the remaining budget cannot
// cover is clamped (never refused — a tenant with a tiny clamped cache is
// degraded, not broken).

import (
	"sort"
	"sync"
)

// DefaultTenantCacheShare is the per-tenant partition size used when a
// tenant's share is unset.
const DefaultTenantCacheShare = 128

// CachePool hands out per-tenant QueryCache partitions against one total
// entry budget. Safe for concurrent use.
type CachePool struct {
	mu           sync.Mutex
	total        int // total entry budget; <= 0 means unbounded
	remaining    int
	defaultShare int
	parts        map[string]*QueryCache
}

// NewCachePool creates a pool with a total entry budget (<= 0 = unbounded)
// and a default per-tenant share (<= 0 = DefaultTenantCacheShare).
func NewCachePool(total, defaultShare int) *CachePool {
	if defaultShare <= 0 {
		defaultShare = DefaultTenantCacheShare
	}
	return &CachePool{
		total:        total,
		remaining:    total,
		defaultShare: defaultShare,
		parts:        make(map[string]*QueryCache),
	}
}

// Partition returns the tenant's cache partition, creating it on first use
// with the given share (0 = the pool's default share; negative = caching
// disabled for this tenant, returns nil). The share is clamped to the
// pool's remaining budget; once the budget is exhausted new tenants get a
// minimal 1-entry partition rather than none, so they still dedupe
// concurrent identical queries via singleflight.
func (p *CachePool) Partition(tenant string, share int) *QueryCache {
	if share < 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.parts[tenant]; ok {
		return c
	}
	if share == 0 {
		share = p.defaultShare
	}
	if p.total > 0 {
		if share > p.remaining {
			share = p.remaining
		}
		if share < 1 {
			share = 1
		}
		p.remaining -= share
		if p.remaining < 0 {
			p.remaining = 0
		}
	}
	c := NewQueryCache(share)
	p.parts[tenant] = c
	return c
}

// PartitionStats is one tenant partition's gauge row.
type PartitionStats struct {
	Tenant string
	CacheStats
}

// Stats snapshots every partition, sorted by tenant.
func (p *CachePool) Stats() []PartitionStats {
	p.mu.Lock()
	rows := make([]PartitionStats, 0, len(p.parts))
	for id, c := range p.parts {
		rows = append(rows, PartitionStats{Tenant: id, CacheStats: c.Stats()})
	}
	p.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows
}
