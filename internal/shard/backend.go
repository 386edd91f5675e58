package shard

import (
	"context"
	"io"

	"uniask/internal/index"
	"uniask/internal/resilience"
	"uniask/internal/vector"
)

// Backend is the per-shard surface the facade drives. Two implementations
// exist: Local wraps an in-process *index.Segmented (infallible — its
// query methods never return an error), and the remote package's client and
// replica group speak the same surface over the wire, where any call can
// fail because the shard server is unreachable.
//
// The query methods carry a context for deadlines and trace propagation and
// return an error so the facade can count a shard as down and merge partial
// results instead of failing the whole query. The write methods keep the
// repository signatures: a failed remote write surfaces as an ingest error,
// exactly like a full disk would on a local shard.
type Backend interface {
	// Writes (routed by the facade's chunk-id hash). AddBulk adds docs in
	// order up to the first refusal and reports how many it applied, so the
	// facade stamps arrival sequences on exactly those.
	Add(doc index.Document) error
	AddBulk(docs []index.Document) (applied int, err error)
	Delete(chunkID string) bool
	DeleteParent(parentID string) int
	ParentChunkIDs(parentID string) []string
	HasParents(ids []string) (present []bool, err error)

	// Queries. CollectStats and SearchTextGlobal are the two-wave global
	// BM25 protocol; SearchText is the single-shard fast path.
	CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error)
	SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error)
	SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error)
	SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error)
	DocByID(id string) (index.Document, bool)
	// DocsByID is the batched, deadline-carrying document read the facade
	// issues once per shard per query: docs is aligned with ids, an unknown
	// or tombstoned id yields the zero Document, and an error means the
	// shard could not be asked at all.
	DocsByID(ctx context.Context, ids []string) ([]index.Document, error)

	// Staleness signals and gauges. These are read on the query hot path
	// (cache keying) and by the dashboard; implementations must keep them
	// cheap and non-blocking — the remote client serves cached last-known
	// values when the endpoint is unreachable.
	StatsKey() uint64
	Len() int
	LiveLen() int
	Tombstones() int
	Stats() index.Stats
	SegmentStats() index.SegmentStats

	// Lifecycle and bulk access (persistence, diagnostics, migration).
	Doc(ord int) index.Document
	LiveDocs() []index.Document
	Publish()
	WaitCompaction()
	Save(w io.Writer) error
	Close() error
}

// HealthReporter is implemented by backends that guard remote endpoints
// with circuit breakers (the remote replica group); the engine folds these
// into its /api/health breaker report.
type HealthReporter interface {
	Breakers() []resilience.BreakerStatus
}

// Local adapts an in-process segmented store to the Backend surface. The
// context-and-error query wrappers are the only additions: a local shard
// cannot be "down", so they delegate and return nil errors (a cancelled
// context is honored before the call, matching the remote client's
// behavior of not issuing RPCs for dead requests).
type Local struct {
	*index.Segmented
}

// NewLocal wraps a segmented store as a shard backend.
func NewLocal(s *index.Segmented) *Local { return &Local{Segmented: s} }

var _ Backend = (*Local)(nil)

// Segmented exposes the wrapped store (tests and diagnostics).
func (l *Local) Store() *index.Segmented { return l.Segmented }

// AddBulk implements Backend.
func (l *Local) AddBulk(docs []index.Document) (applied int, err error) {
	return l.Segmented.AddBulkCounted(docs)
}

// CollectStats implements Backend.
func (l *Local) CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error) {
	if err := ctx.Err(); err != nil {
		return index.CorpusStats{}, err
	}
	return l.Segmented.CollectStats(fields, terms), nil
}

// SearchText implements Backend.
func (l *Local) SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Segmented.SearchText(query, n, opts), nil
}

// SearchTextGlobal implements Backend.
func (l *Local) SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Segmented.SearchTextGlobal(query, n, opts, stats), nil
}

// SearchVectorUnit implements Backend.
func (l *Local) SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Segmented.SearchVectorUnit(field, q, k, filters), nil
}

// DocsByID implements Backend.
func (l *Local) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	docs, _ := l.Segmented.DocsByID(ctx, ids)
	return docs, nil
}

// Close implements Backend (a local shard holds no connections).
func (l *Local) Close() error { return nil }
