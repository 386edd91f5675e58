// Package shard implements the N-way sharded index facade: documents are
// routed to shards by a stable hash of their chunk id, queries fan out to
// every shard in parallel over the pipeline.Map bounded worker pool, and
// the per-shard top-n results merge into a globally correct top-k whose
// ordering is byte-identical to a single monolithic index.
//
// Two subtleties make the parity exact rather than approximate:
//
//   - BM25 corpus statistics are global. Each text query first collects
//     every shard's document count, field lengths and term document
//     frequencies (index.CollectStats), merges them, and scores each shard
//     with the aggregate (index.SearchTextGlobal) — per-shard idf would
//     rank documents on different curves and diverge from the monolithic
//     ordering.
//   - Vector ties break on global insertion order. The exhaustive k-NN
//     backend breaks distance ties by insertion ordinal; shard-local
//     ordinals differ from monolithic ones, so the facade stamps every
//     added chunk with a global arrival sequence number and merges vector
//     candidates by (score desc, sequence asc).
//
// Shards are Backends: in-process segmented stores (Local) or network
// endpoints speaking the remote wire protocol (internal/remote), mixed
// freely behind the same facade. A remote shard can be down; the facade
// then merges the surviving shards' results and reports the outage count,
// which the search layer surfaces as a Degradation — partial results, not
// an error.
//
// A facade with Shards == 1 delegates straight to its single shard and is
// observationally identical to using *index.Index directly.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uniask/internal/index"
	"uniask/internal/pipeline"
	"uniask/internal/resilience"
	"uniask/internal/trace"
	"uniask/internal/vector"
)

// Config controls facade construction.
type Config struct {
	// Shards is the number of index shards; values < 1 mean 1.
	Shards int
	// Index configures each shard identically (schema, BM25 params,
	// vector-index constructor).
	Index index.Config
	// Segment tunes each shard's segmented write path (memtable bound,
	// compaction fan-in).
	Segment index.SegmentConfig
	// Workers bounds the query fan-out concurrency; 0 means one worker per
	// CPU (pipeline.DefaultWorkers).
	Workers int
}

// queryStat accumulates one shard's query-side gauge counters.
type queryStat struct {
	queries atomic.Uint64
	nanos   atomic.Uint64
	errors  atomic.Uint64
}

// Sharded is the N-way sharded index facade. It satisfies the same
// index.Repository surface as *index.Index, so the search, ingestion and
// persistence layers run unchanged on top of it.
//
// Concurrency matches the monolithic index: any number of concurrent
// readers racing a single live writer. Each shard has its own lock domain
// (an RWMutex for local shards, a connection pool for remote ones), so
// readers of different shards never contend; the facade itself only guards
// the global sequence map.
type Sharded struct {
	cfg    Config
	shards []Backend

	// tmpl is an empty index built from cfg.Index whose only job is to
	// answer schema questions without a round trip: the schema is
	// configuration, identical on every shard by construction, so the
	// facade answers locally even when every shard is remote. Query
	// analysis needs no shard either: it is index.QueryTerms.
	tmpl *index.Index

	// seqMu guards seq/nextSeq. seq maps a chunk id to its global arrival
	// sequence — the cross-shard equivalent of the monolithic insertion
	// ordinal, used to break vector-distance ties exactly like a single
	// index would.
	seqMu   sync.RWMutex
	seq     map[string]uint64
	nextSeq uint64

	// dims holds each vector field's dimension across every shard: the
	// length of the first vector the facade accepted, re-derived from the
	// shards on Load. A shard only knows its own, so one still empty of a
	// field would take any length. dimMu guards dims and is held across a
	// write, so the check and the note are one step.
	dimMu sync.Mutex
	dims  index.Dims

	// journal aggregates the shards' deletes into one stream so the query
	// cache keeps a single cursor against the facade (see index.Queryable).
	journal *index.DeleteJournal

	stats []queryStat
}

// New creates an empty sharded facade over in-process shards.
func New(cfg Config) *Sharded {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	backends := make([]Backend, cfg.Shards)
	for i := range backends {
		backends[i] = NewLocal(index.NewSegmented(cfg.Index, cfg.Segment))
	}
	return NewWithBackends(cfg, backends)
}

// NewWithBackends creates a facade over caller-supplied shard backends —
// in-process stores, remote clients, replicated remote groups, or any mix.
// len(backends) overrides cfg.Shards.
func NewWithBackends(cfg Config, backends []Backend) *Sharded {
	if len(backends) == 0 {
		panic("shard: NewWithBackends needs at least one backend")
	}
	cfg.Shards = len(backends)
	return &Sharded{
		cfg:     cfg,
		shards:  backends,
		tmpl:    index.New(cfg.Index),
		seq:     make(map[string]uint64),
		dims:    make(index.Dims),
		journal: index.NewDeleteJournal(),
		stats:   make([]queryStat, len(backends)),
	}
}

// Compile-time checks: the facade is a drop-in index.Repository with a
// publication point.
var (
	_ index.Repository = (*Sharded)(nil)
	_ index.Publisher  = (*Sharded)(nil)
)

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Backend exposes one shard's backend (diagnostics and tests).
func (s *Sharded) Backend(i int) Backend { return s.shards[i] }

// Shard exposes one shard's in-process store, or nil when the shard is
// remote (diagnostics and tests).
func (s *Sharded) Shard(i int) *index.Segmented {
	if l, ok := s.shards[i].(*Local); ok {
		return l.Segmented
	}
	return nil
}

// Close releases every backend's resources (remote connection pools; local
// shards are no-ops). The facade must not be queried after Close.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Breakers reports the circuit-breaker status of every remote endpoint
// guarding a shard (empty for an all-local facade). The engine folds these
// into its health report.
func (s *Sharded) Breakers() []resilience.BreakerStatus {
	var out []resilience.BreakerStatus
	seen := make(map[string]bool)
	for _, sh := range s.shards {
		hr, ok := sh.(HealthReporter)
		if !ok {
			continue
		}
		// Endpoint breakers are shared across every shard placed on that
		// endpoint; report each endpoint once.
		for _, st := range hr.Breakers() {
			if seen[st.Name] {
				continue
			}
			seen[st.Name] = true
			out = append(out, st)
		}
	}
	return out
}

// ShardFor returns the shard index owning a chunk id: FNV-1a 64 of the id
// modulo the shard count. The hash is stable across processes and
// releases, so a snapshot reloaded at the same shard count needs no
// re-routing.
func (s *Sharded) ShardFor(id string) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(len(s.shards)))
}

// assignSeq stamps id with the next global arrival sequence.
func (s *Sharded) assignSeq(id string) {
	s.seqMu.Lock()
	s.seq[id] = s.nextSeq
	s.nextSeq++
	s.seqMu.Unlock()
}

// deriveDims re-establishes dims from the shards' documents: per field, the
// first vector found (tombstoned chunks count, their vectors are in the
// graphs too). The scan stops once every vector field has one.
func (s *Sharded) deriveDims() {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	fields := len(s.VectorFields())
	for _, sh := range s.shards {
		for ord, n := 0, sh.Len(); ord < n && len(s.dims) < fields; ord++ {
			s.dims.Note(sh.Doc(ord).Vectors)
		}
	}
}

// Add routes the document to its shard. Duplicate-id detection works
// unchanged: equal ids always hash to the same shard. A vector of another
// dimension than its field's is refused before routing, and the arrival
// sequence is stamped only once the shard has accepted the document, so a
// rejected duplicate leaves its live copy's place in vector ties alone.
func (s *Sharded) Add(doc index.Document) error {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	if err := s.dims.Check(doc.Vectors); err != nil {
		return err
	}
	if err := s.shards[s.ShardFor(doc.ID)].Add(doc); err != nil {
		return err
	}
	s.dims.Note(doc.Vectors)
	s.assignSeq(doc.ID)
	return nil
}

// AddBulk partitions docs by owning shard (preserving relative order, so
// each shard's insertion order — and therefore its HNSW graph — is
// deterministic) and feeds the shards in parallel. On error the index may
// be partially updated, exactly like a stopped sequential loop. A document
// whose vector has another dimension than its field's (established before
// or earlier in docs) stops the batch there: the documents before it are
// added, then that refusal is returned. Arrival sequences are stamped after
// the shards answer, in input order, on the documents each shard applied:
// one a shard refused (a duplicate of a live chunk) leaves its live copy's
// place in vector ties alone, as in Add.
func (s *Sharded) AddBulk(docs []index.Document) error {
	return s.addBulk(docs, Backend.AddBulk)
}

// addBulk is AddBulk with add as each shard's bulk write.
func (s *Sharded) addBulk(docs []index.Document, add func(Backend, []index.Document) (int, error)) error {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	var dimErr error
	for i, d := range docs {
		if dimErr = s.dims.Check(d.Vectors); dimErr != nil {
			docs = docs[:i]
			break
		}
		s.dims.Note(d.Vectors)
	}
	owner := make([]int, len(docs))
	parts := make([][]index.Document, len(s.shards))
	for j, d := range docs {
		i := s.ShardFor(d.ID)
		owner[j] = i
		parts[i] = append(parts[i], d)
	}
	applied := make([]int, len(s.shards))
	errs := make([]error, len(s.shards))
	// A failing shard does not stop the others, so every count below is its
	// own shard's. The fan-out stays bounded by Workers: feeding all shards
	// at once built no faster on two cores and left more pooled build
	// state behind.
	pipeline.Map(context.Background(), s.cfg.Workers, len(s.shards),
		func(_ context.Context, i int) (struct{}, error) {
			if len(parts[i]) > 0 {
				applied[i], errs[i] = add(s.shards[i], parts[i])
			}
			return struct{}{}, nil
		})
	seen := make([]int, len(s.shards))
	for j, d := range docs {
		i := owner[j]
		if seen[i] < applied[i] {
			s.assignSeq(d.ID)
		}
		seen[i]++
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return dimErr
}

// Delete tombstones a chunk on its owning shard and journals the id for
// precise cache eviction.
func (s *Sharded) Delete(chunkID string) bool {
	if !s.shards[s.ShardFor(chunkID)].Delete(chunkID) {
		return false
	}
	s.journal.Record(chunkID)
	return true
}

// DeleteParent tombstones every chunk of a KB document. Chunks of one
// parent hash by their own chunk ids and may live on any shard, so the
// delete fans out to all of them at once; after the join every removed
// chunk id lands in the facade journal in shard order, so the journal does
// not depend on which shard answered first.
func (s *Sharded) DeleteParent(parentID string) int {
	counts := make([]int, len(s.shards))
	removed, _ := pipeline.Map(context.Background(), len(s.shards), len(s.shards),
		func(_ context.Context, i int) ([]string, error) {
			ids := s.shards[i].ParentChunkIDs(parentID)
			if len(ids) > 0 {
				counts[i] = s.shards[i].DeleteParent(parentID)
			}
			return ids, nil
		})
	n := 0
	for i, ids := range removed {
		n += counts[i]
		for _, id := range ids {
			s.journal.Record(id)
		}
	}
	return n
}

// HasParents asks every shard at once about the whole batch and ORs the
// answers: a parent's chunks hash by their own ids, so any shard may hold
// one. A shard that cannot be asked fails the batch; reading it as "absent"
// would make the indexer add a second copy of a page it should replace.
func (s *Sharded) HasParents(ids []string) ([]bool, error) {
	answers, err := pipeline.Map(context.Background(), len(s.shards), len(s.shards),
		func(_ context.Context, i int) ([]bool, error) {
			present, err := s.shards[i].HasParents(ids)
			if err != nil {
				return nil, fmt.Errorf("shard %d: presence: %w", i, err)
			}
			return present, nil
		})
	if err != nil {
		return nil, err
	}
	present := make([]bool, len(ids))
	for _, a := range answers {
		for j, p := range a {
			present[j] = present[j] || p
		}
	}
	return present, nil
}

// StatsKey returns the sum of the shard stats snapshot keys. Each shard's
// key is non-decreasing and rotates only when that shard publishes new BM25
// statistics (memtable seal, tombstone-dropping compaction), so the sum
// changes exactly when some shard's published statistics change — writes
// absorbed by a memtable but not yet sealed leave it untouched, which is
// what lets cache entries survive unrelated-shard writes.
func (s *Sharded) StatsKey() uint64 {
	var k uint64
	for _, sh := range s.shards {
		k += sh.StatsKey()
	}
	return k
}

// DeletesSince drains the facade's delete journal from cursor (see
// index.Queryable).
func (s *Sharded) DeletesSince(cursor uint64) (ids []string, next uint64, ok bool) {
	return s.journal.Since(cursor)
}

// Publish seals every shard's memtable and schedules their background
// compactions — the facade-wide publication point the ingestion layer
// calls after each bulk load or poll cycle.
func (s *Sharded) Publish() {
	for _, sh := range s.shards {
		sh.Publish()
	}
}

// WaitCompaction blocks until every shard's background compactor is idle.
func (s *Sharded) WaitCompaction() {
	for _, sh := range s.shards {
		sh.WaitCompaction()
	}
}

// SegmentStats returns one segmented-store gauge snapshot per shard.
func (s *Sharded) SegmentStats() []index.SegmentStats {
	out := make([]index.SegmentStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.SegmentStats()
	}
	return out
}

// Len counts chunks ever inserted across shards, including tombstones.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// LiveLen counts live chunks across shards.
func (s *Sharded) LiveLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.LiveLen()
	}
	return n
}

// Tombstones counts tombstoned chunks across shards.
func (s *Sharded) Tombstones() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Tombstones()
	}
	return n
}

// Doc returns the document at a global ordinal, where ordinals concatenate
// the shards in order: shard 0's documents first, then shard 1's, and so
// on. The mapping is only stable between mutations; it exists for
// diagnostics and sampling, not for identifying documents — use DocByID.
func (s *Sharded) Doc(ord int) index.Document {
	for _, sh := range s.shards {
		if n := sh.Len(); ord < n {
			return sh.Doc(ord)
		} else {
			ord -= n
		}
	}
	panic(fmt.Sprintf("shard: ordinal %d out of range", ord))
}

// DocByID fetches a document from its owning shard.
func (s *Sharded) DocByID(id string) (index.Document, bool) {
	return s.shards[s.ShardFor(id)].DocByID(id)
}

// DocsByID implements index.Queryable: ids are grouped by owning shard and
// every shard that owns at least one is asked exactly once, in parallel over
// the same bounded fan-out as the search legs, so materializing a query's
// results costs at most NumShards round trips however many hits it has. docs
// is aligned with ids. A shard that cannot be reached leaves its slots zero
// and is counted in shardsDown (the search layer reports it as a
// Degradation); a cancelled caller is not an outage and reports 0.
func (s *Sharded) DocsByID(ctx context.Context, ids []string) (docs []index.Document, shardsDown int) {
	docs = make([]index.Document, len(ids))
	// slots[i] lists the positions in ids that shard i owns.
	slots := make([][]int, len(s.shards))
	for pos, id := range ids {
		i := s.ShardFor(id)
		slots[i] = append(slots[i], pos)
	}
	type fetchOutcome struct {
		docs []index.Document
		err  error
	}
	perShard, err := pipeline.Map(ctx, s.cfg.Workers, len(s.shards),
		func(ctx context.Context, i int) (fetchOutcome, error) {
			if len(slots[i]) == 0 {
				return fetchOutcome{}, nil
			}
			owned := make([]string, len(slots[i]))
			for j, pos := range slots[i] {
				owned[j] = ids[pos]
			}
			ctx, sp := trace.Start(ctx, "shard.fetch", trace.A("shard", strconv.Itoa(i)), trace.A("ids", strconv.Itoa(len(owned))))
			got, err := s.shards[i].DocsByID(ctx, owned)
			sp.SetError(err)
			sp.End()
			return fetchOutcome{docs: got, err: err}, nil
		})
	if err != nil || ctx.Err() != nil {
		// Cancelled: any per-shard errors are the torn-down fan-out, not
		// outages (see SearchTextPartial).
		return docs, 0
	}
	for i, o := range perShard {
		if o.err != nil {
			shardsDown++
			trace.AddEvent(ctx, "shard.down", trace.A("shard", strconv.Itoa(i)), trace.A("leg", "fetch"))
			continue
		}
		for j, pos := range slots[i] {
			docs[pos] = o.docs[j]
		}
	}
	return docs, shardsDown
}

// Schema returns the shared shard schema.
func (s *Sharded) Schema() index.Schema { return s.tmpl.Schema() }

// VectorFields lists the vector fields (shared, read-only).
func (s *Sharded) VectorFields() []string { return s.tmpl.VectorFields() }

// SearchableFields lists the searchable fields (shared, read-only).
func (s *Sharded) SearchableFields() []string { return s.tmpl.SearchableFields() }

// LiveDocs concatenates the shards' live documents in shard order.
func (s *Sharded) LiveDocs() []index.Document {
	var out []index.Document
	for _, sh := range s.shards {
		out = append(out, sh.LiveDocs()...)
	}
	return out
}

// record notes one shard query for the per-shard latency gauges.
func (s *Sharded) record(shard int, start time.Time, err error) {
	s.stats[shard].queries.Add(1)
	s.stats[shard].nanos.Add(uint64(time.Since(start)))
	if err != nil {
		s.stats[shard].errors.Add(1)
	}
}

// SearchText runs a BM25 query across all shards and merges the per-shard
// top-n into the global top-n.
//
// The fan-out happens in two waves: first every shard reports its corpus
// statistics for the analyzed query terms, then every shard scores with
// the merged global statistics. Both waves run over pipeline.Map, which
// preserves task order, so the merge input — and therefore the final
// ranking under the canonical (score desc, id asc) order — is
// deterministic.
func (s *Sharded) SearchText(query string, n int, opts index.TextOptions) []index.Hit {
	hits, _ := s.SearchTextPartial(context.Background(), query, n, opts)
	return hits
}

// SearchTextPartial is SearchText with context propagation and the outage
// report. On a traced request each shard's scoring wave emits one child
// "shard.search" span carrying the shard id and the leg kind, so a fetched
// trace shows the fan-out shape and which shard dominated the leg's
// latency. The second return value counts shards that were unreachable and
// therefore absent from the merged ranking. Zero means the ranking is complete (and
// byte-identical to the monolithic index); a positive count means partial
// results, which the search layer reports as a Degradation. A shard that
// fails its statistics wave is excluded from the scoring wave too: scoring
// a shard against global statistics missing its own contribution would
// rank its documents on a different curve than its neighbors.
func (s *Sharded) SearchTextPartial(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, int) {
	if len(s.shards) == 1 {
		_, sp := trace.Start(ctx, "shard.search", trace.A("shard", "0"), trace.A("leg", "text"))
		start := time.Now()
		hits, err := s.shards[0].SearchText(ctx, query, n, opts)
		s.record(0, start, err)
		sp.SetError(err)
		sp.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0
			}
			return nil, 1
		}
		return hits, 0
	}
	if n <= 0 {
		return nil, 0
	}
	terms := index.QueryTerms(query)
	if len(terms) == 0 {
		return nil, 0
	}
	fields := opts.Fields
	if len(fields) == 0 {
		fields = s.SearchableFields()
	}

	type statsOutcome struct {
		cs  index.CorpusStats
		err error
	}
	down := make([]bool, len(s.shards))
	partials, err := pipeline.Map(ctx, s.cfg.Workers, len(s.shards),
		func(ctx context.Context, i int) (statsOutcome, error) {
			cs, err := s.shards[i].CollectStats(ctx, fields, terms)
			return statsOutcome{cs: cs, err: err}, nil
		})
	if err != nil {
		return nil, 0 // the caller was cancelled, not a shard outage
	}
	var global index.CorpusStats
	for i, p := range partials {
		if p.err != nil {
			down[i] = true
			continue
		}
		global.Merge(p.cs)
	}

	type hitsOutcome struct {
		hits []index.Hit
		err  error
	}
	perShard, err := pipeline.Map(ctx, s.cfg.Workers, len(s.shards),
		func(ctx context.Context, i int) (hitsOutcome, error) {
			if down[i] {
				return hitsOutcome{}, nil
			}
			_, sp := trace.Start(ctx, "shard.search", trace.A("shard", strconv.Itoa(i)), trace.A("leg", "text"))
			start := time.Now()
			hits, err := s.shards[i].SearchTextGlobal(ctx, query, n, opts, &global)
			s.record(i, start, err)
			sp.SetError(err)
			sp.End()
			return hitsOutcome{hits: hits, err: err}, nil
		})
	if err != nil {
		return nil, 0
	}
	merged := make([][]index.Hit, 0, len(perShard))
	for i, o := range perShard {
		if down[i] {
			continue
		}
		if o.err != nil {
			down[i] = true
			continue
		}
		merged = append(merged, o.hits)
	}
	outage := 0
	for i, d := range down {
		if d {
			outage++
			trace.AddEvent(ctx, "shard.down", trace.A("shard", strconv.Itoa(i)), trace.A("leg", "text"))
		}
	}
	if ctx.Err() != nil {
		// A cancelled fan-out reports transport errors on every leg it tore
		// down; those are the caller's cancellation, not shard outages.
		return nil, 0
	}
	return mergeText(merged, n), outage
}

// mergeText merges per-shard ranked hit lists into the global top-n under
// the canonical text order. Each input holds at most n hits, so a flat
// append-and-sort beats a k-way heap at the sizes involved.
func mergeText(perShard [][]index.Hit, n int) []index.Hit {
	total := 0
	for _, hits := range perShard {
		total += len(hits)
	}
	merged := make([]index.Hit, 0, total)
	for _, hits := range perShard {
		merged = append(merged, hits...)
	}
	index.SortHits(merged)
	if len(merged) > n {
		merged = merged[:n]
	}
	return merged
}

// SearchVector runs an ANN query across all shards and merges the
// per-shard candidates into the global top-k. Every shard returns its own
// k best survivors; the global k best are a subset of that union. Ties in
// score break on the global arrival sequence, which reproduces the
// insertion-ordinal tiebreak of a monolithic exhaustive index.
func (s *Sharded) SearchVector(field string, q vector.Vector, k int, filters []index.Filter) []index.Hit {
	hits, _ := s.SearchVectorPartial(context.Background(), field, q, k, filters)
	return hits
}

// SearchVectorPartial is SearchVector with context propagation — each
// shard's ANN probe becomes a child "shard.search" span on a traced request
// — and the outage report (see SearchTextPartial).
func (s *Sharded) SearchVectorPartial(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, int) {
	// Normalize once per request; every shard (and every segment part below
	// it) receives the same unit query instead of re-normalizing its own copy.
	qn := vector.Normalize(append(vector.Vector(nil), q...))
	if len(s.shards) == 1 {
		_, sp := trace.Start(ctx, "shard.search", trace.A("shard", "0"), trace.A("leg", "vector:"+field))
		start := time.Now()
		hits, err := s.shards[0].SearchVectorUnit(ctx, field, qn, k, filters)
		s.record(0, start, err)
		sp.SetError(err)
		sp.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0
			}
			return nil, 1
		}
		return hits, 0
	}
	if k <= 0 {
		return nil, 0
	}
	type hitsOutcome struct {
		hits []index.Hit
		err  error
	}
	perShard, err := pipeline.Map(ctx, s.cfg.Workers, len(s.shards),
		func(ctx context.Context, i int) (hitsOutcome, error) {
			_, sp := trace.Start(ctx, "shard.search", trace.A("shard", strconv.Itoa(i)), trace.A("leg", "vector:"+field))
			start := time.Now()
			hits, err := s.shards[i].SearchVectorUnit(ctx, field, qn, k, filters)
			s.record(i, start, err)
			sp.SetError(err)
			sp.End()
			return hitsOutcome{hits: hits, err: err}, nil
		})
	if err != nil {
		return nil, 0
	}
	outage := 0
	total := 0
	for i, o := range perShard {
		if o.err != nil {
			outage++
			trace.AddEvent(ctx, "shard.down", trace.A("shard", strconv.Itoa(i)), trace.A("leg", "vector:"+field))
			continue
		}
		total += len(o.hits)
	}
	if ctx.Err() != nil {
		return nil, 0
	}
	merged := make([]index.Hit, 0, total)
	for _, o := range perShard {
		if o.err != nil {
			continue
		}
		merged = append(merged, o.hits...)
	}
	seqs := make([]uint64, len(merged))
	s.seqMu.RLock()
	for i, h := range merged {
		seqs[i] = s.seq[h.ID]
	}
	s.seqMu.RUnlock()
	sort.Sort(&bySeqTie{hits: merged, seqs: seqs})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, outage
}

// bySeqTie orders hits by score descending with ties broken by global
// arrival sequence ascending, then id ascending (ids are unique, so the
// order is total even if a sequence is missing).
type bySeqTie struct {
	hits []index.Hit
	seqs []uint64
}

func (b *bySeqTie) Len() int { return len(b.hits) }

func (b *bySeqTie) Swap(i, j int) {
	b.hits[i], b.hits[j] = b.hits[j], b.hits[i]
	b.seqs[i], b.seqs[j] = b.seqs[j], b.seqs[i]
}

func (b *bySeqTie) Less(i, j int) bool {
	if b.hits[i].Score != b.hits[j].Score {
		return b.hits[i].Score > b.hits[j].Score
	}
	if b.seqs[i] != b.seqs[j] {
		return b.seqs[i] < b.seqs[j]
	}
	return b.hits[i].ID < b.hits[j].ID
}

// ShardStat is one shard's dashboard gauge row.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Stats is the shard's index gauge snapshot (docs, postings, ...).
	index.Stats
	// Queries counts per-shard search calls since process start.
	Queries uint64
	// Errors counts per-shard search calls that failed (remote shard
	// unreachable; always 0 for local shards).
	Errors uint64
	// AvgQueryLatency is the mean per-shard search latency.
	AvgQueryLatency time.Duration
}

// ShardStats returns one gauge row per shard for the monitoring dashboard.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		q := s.stats[i].queries.Load()
		ns := s.stats[i].nanos.Load()
		st := ShardStat{Shard: i, Stats: sh.Stats(), Queries: q, Errors: s.stats[i].errors.Load()}
		if q > 0 {
			st.AvgQueryLatency = time.Duration(ns / q)
		}
		out[i] = st
	}
	return out
}
