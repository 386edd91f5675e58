package search

// Query-result cache: pilot traffic and load tests hammer a small set of
// recurring questions (§8), so the searcher memoizes full retrieval results
// in an LRU keyed on (query, options). Entries carry the BM25 stats
// snapshot key (index.Queryable.StatsKey) they were scored under and are
// invalidated lazily when the key rotates. Concurrent identical queries
// collapse into one execution (singleflight): the first caller computes,
// the rest wait and share the result.
//
// Two invalidation channels replace the old whole-epoch flush:
//
//   - Stats rotation. BM25 idf is computed from global corpus statistics,
//     so once a write is *published* — a segmented store sealing a non-empty
//     memtable, a compaction dropping tombstones, any Add on a plain
//     mutable index — every cached ranking is potentially reordered (adding
//     one document can shift the scores of matches living entirely on other
//     shards; TestCacheStatsRotationRecomputes demonstrates the flip) and
//     entries keyed on the old snapshot lapse. Writes a segmented store has
//     absorbed but not yet published do not rotate the key, which is what
//     lets entries survive live ingestion: a write to shard A no longer
//     evicts results scored only against shard B's sealed segments.
//   - The delete journal. Tombstoning a chunk changes no statistic (the
//     chunk keeps counting toward N, average length and DF), so instead of
//     rotating the key, SyncDeletes drains the store's journal and evicts
//     exactly the entries whose results name a deleted chunk. A cached
//     top-k without the chunk is still byte-exact and survives.
//
// Unpublished writes are still searchable immediately — uncached queries
// always score against live statistics. What the cache trades is
// recency-under-repetition: a repeated query can replay a pre-write ranking
// until the next publication (the ingestion layer publishes at the end of
// every bulk load and poll cycle), the near-real-time semantics of a
// Lucene/Elasticsearch refresh interval.
//
// A hit hands out the entry's own results, read-only, and the entry carries
// one render-once slot (Hits.Render): the server encodes a hot query's
// /api/search body on its first hit and writes the same bytes on every
// later one. The body lives and dies with its entry — LRU eviction, a
// delete-journal eviction, a stats-key rotation, a refresh of the key and
// Purge all drop it — so no second map of bodies exists to invalidate.

import (
	"container/list"
	"strconv"
	"sync"

	"uniask/internal/index"
)

// DefaultQueryCacheCapacity is the entry budget used when NewQueryCache is
// given a non-positive capacity.
const DefaultQueryCacheCapacity = 512

// QueryCache is a snapshot-keyed LRU of search results with in-flight
// deduplication and precise delete eviction. Safe for concurrent use.
type QueryCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element holding *cacheEntry
	flights map[flightKey]*flight
	hits    uint64
	misses  uint64

	// delCursor is the cache's position in the store's delete journal;
	// delEvictions counts entries evicted because a result was deleted.
	delCursor    uint64
	delEvictions uint64
}

// cacheEntry is one cached ranking. Nothing in it changes after it is
// stored except its render-once slot: a refresh of the key replaces the
// whole entry, so a hit that still holds the old one keeps a consistent
// pair of results and body.
type cacheEntry struct {
	key     string
	snap    uint64   // stats snapshot key the results were scored under
	results []Result // shared, read-only, by every hit on the entry
	deg     Degradation

	// rendered and body are the render-once slot behind Hits.Render: the
	// first hit that asks renders the results, later hits share the bytes.
	rendered sync.Once
	body     []byte
}

// flightKey includes the stats snapshot key so a flight started against a
// stale snapshot never absorbs callers that already observed a newer one.
type flightKey struct {
	key  string
	snap uint64
}

// flight is one in-progress computation; results/deg/err are published
// before done is closed.
type flight struct {
	done    chan struct{}
	results []Result
	deg     Degradation
	err     error
}

// NewQueryCache creates a cache holding up to capacity entries
// (DefaultQueryCacheCapacity when capacity <= 0).
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheCapacity
	}
	return &QueryCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[flightKey]*flight),
	}
}

// lookup returns the entry cached under key at the given stats snapshot.
// Its results are shared with every other hit: the caller must not modify
// them. A key cached at any other snapshot counts as a miss and is evicted.
func (c *QueryCache) lookup(key []byte, snap uint64) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)] // no allocation: the compiler reads key in place
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.snap != snap {
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e, true
}

// SyncDeletes advances the cache's cursor through the store's delete
// journal and evicts exactly the entries whose cached results name a
// deleted chunk — the precise counterpart of the stats-snapshot check:
// deletes change no statistic, so every other entry remains byte-exact.
// When the bounded journal has wrapped past the cursor the cache has missed
// deletes and the only sound move is a full purge.
func (c *QueryCache) SyncDeletes(q index.Queryable) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, next, ok := q.DeletesSince(c.delCursor)
	c.delCursor = next
	if !ok {
		c.lru.Init()
		c.entries = make(map[string]*list.Element)
		return
	}
	if len(ids) == 0 {
		return
	}
	deleted := make(map[string]bool, len(ids))
	for _, id := range ids {
		deleted[id] = true
	}
	var nextEl *list.Element
	for el := c.lru.Front(); el != nil; el = nextEl {
		nextEl = el.Next()
		e := el.Value.(*cacheEntry)
		for _, r := range e.results {
			if deleted[r.ChunkID] {
				c.lru.Remove(el)
				delete(c.entries, e.key)
				c.delEvictions++
				break
			}
		}
	}
}

// join registers interest in (key, snap): the first caller becomes the
// leader (leader=true) and must call complete; later callers receive the
// same flight and wait on its done channel.
func (c *QueryCache) join(key string, snap uint64) (f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fk := flightKey{key: key, snap: snap}
	if f, ok := c.flights[fk]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[fk] = f
	return f, true
}

// complete publishes the leader's outcome to waiters and, when store is
// true (the caller decided the result is cacheable: success, snapshot and
// delete journal still current, not degraded), stores it in the LRU.
func (c *QueryCache) complete(key string, snap uint64, f *flight, results []Result, deg Degradation, err error, store bool) {
	c.mu.Lock()
	delete(c.flights, flightKey{key: key, snap: snap})
	if err == nil && store {
		c.storeLocked(key, snap, copyResults(results), deg)
	}
	c.mu.Unlock()
	f.results, f.deg, f.err = results, deg, err
	close(f.done)
}

// storeLocked inserts or refreshes an entry; the caller holds c.mu. A
// refresh installs a new entry, so it starts with an empty render slot.
func (c *QueryCache) storeLocked(key string, snap uint64, results []Result, deg Degradation) {
	e := &cacheEntry{key: key, snap: snap, results: results, deg: deg}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
}

// Purge drops every cached entry and resets the delete-journal cursor
// (used when the backing index object is swapped wholesale, e.g. LoadIndex,
// where snapshot keys and journals restart from zero).
func (c *QueryCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[string]*list.Element)
	c.delCursor = 0
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	// DeleteEvictions counts entries evicted by SyncDeletes because one of
	// their results had been deleted — the precise-invalidation channel.
	DeleteEvictions uint64
}

// HitRate is hits over lookups (0 when the cache has never been consulted).
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats reports hit/miss counters and the current entry count.
func (c *QueryCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), DeleteEvictions: c.delEvictions}
}

// copyResults returns a defensive copy so cached slices are never aliased
// by callers (Result itself holds only immutable fields).
func copyResults(rs []Result) []Result {
	if rs == nil {
		return nil
	}
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// appendCacheKey appends the canonical key of a (query, options) pair under
// a reranker weight version to dst, in one buffer: a caller that passes a
// stack array builds and looks up a hit's key without allocating. Every
// Options field that can change the ranking participates; filters are
// keyed in the order given (conjunction is order-insensitive semantically,
// so differently ordered but equal filter sets merely cache twice).
func appendCacheKey(dst []byte, query string, o Options, rerankVersion uint64) []byte {
	dst = append(dst, query...)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(o.TextN), 10)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(o.VectorK), 10)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(o.RRFC), 10)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(o.Mode), 10)
	dst = append(dst, 0)
	if o.DisableSemanticRerank {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '0')
	}
	dst = append(dst, 0)
	dst = strconv.AppendFloat(dst, o.TitleBoost, 'g', -1, 64)
	dst = append(dst, 0)
	dst = strconv.AppendInt(dst, int64(o.Expansion), 10)
	dst = append(dst, 0)
	dst = append(dst, o.SearchKeywordsField...)
	for _, f := range o.Filters {
		dst = append(dst, 1)
		dst = append(dst, f.Field...)
		dst = append(dst, 0)
		dst = append(dst, f.Value...)
	}
	dst = append(dst, 0)
	return strconv.AppendUint(dst, rerankVersion, 10)
}
