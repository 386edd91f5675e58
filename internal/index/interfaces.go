package index

import (
	"context"
	"io"

	"uniask/internal/vector"
)

// The interfaces below decouple the layers above the index from its
// concrete shape, so a monolithic *Index and the N-way sharded facade
// (internal/shard) are interchangeable: the search layer programs against
// Queryable, the ingestion layer against Writer, and the engine holds the
// union, Repository. *Index satisfies all of them; the compile-time
// assertions at the bottom keep that true.

// Queryable is the read surface the search layer needs: ranked retrieval,
// result materialization, and the staleness signals its query cache keys on
// — the stats snapshot key for score validity and the delete journal for
// precise per-document eviction.
type Queryable interface {
	// StatsKey identifies the BM25 stats snapshot in effect; it changes only
	// when corpus statistics (and therefore every query's scores) change.
	StatsKey() uint64
	// DeletesSince drains the delete journal from cursor; ok is false when
	// the journal wrapped past the cursor and the caller missed deletes.
	DeletesSince(cursor uint64) (ids []string, next uint64, ok bool)
	SearchText(query string, n int, opts TextOptions) []Hit
	SearchVector(field string, q vector.Vector, k int, filters []Filter) []Hit
	VectorFields() []string
	DocByID(id string) (Document, bool)
	// DocsByID is the batched DocByID the query path materializes results
	// through: docs is aligned with ids (duplicates included), and an id that
	// is unknown or tombstoned yields the zero Document (empty ID). shardsDown
	// counts shards of a distributed store that could not be reached, whose
	// ids therefore also read as zero Documents; a single-process store always
	// reports 0. The context bounds and traces the remote round trips.
	DocsByID(ctx context.Context, ids []string) (docs []Document, shardsDown int)
}

// Publisher is implemented by stores with a deferred publication point (the
// segmented store and the sharded facade over it): Publish seals the current
// memtable(s) into immutable segments, rotating the stats snapshot key and
// scheduling background compaction. The ingestion layer calls it at the end
// of each bulk load / poll cycle, mirroring a search engine's
// refresh-after-bulk. WaitCompaction blocks until that compaction is idle.
// Stores whose writes publish immediately (the plain *Index) simply do not
// implement it.
type Publisher interface {
	Publish()
	WaitCompaction()
}

// Writer is the mutation surface the ingestion layer needs.
type Writer interface {
	Add(Document) error
	AddBulk(docs []Document) error
	Delete(chunkID string) bool
	DeleteParent(parentID string) int
	// HasParents reports, aligned with ids, whether a live chunk of each KB
	// document is indexed: one question for a whole change set. An error
	// means the store could not be asked (a sharded store with a shard
	// down); no answer is then given for any id.
	HasParents(ids []string) (present []bool, err error)
}

// Repository is the full index surface the engine holds: queries, writes,
// persistence and the introspection the dashboard and tests rely on.
type Repository interface {
	Queryable
	Writer
	Doc(ord int) Document
	Len() int
	LiveLen() int
	Save(w io.Writer) error
}

var _ Repository = (*Index)(nil)

// AddBulk indexes docs in order, stopping at the first error: one addBatch
// per slice of at most maxBatch documents. The sharded facade overrides it
// with a parallel per-shard build.
func (ix *Index) AddBulk(docs []Document) error { return ix.addBulk(docs, false) }

// addBulk is AddBulk; stored is addBatch's.
func (ix *Index) addBulk(docs []Document, stored bool) error {
	for len(docs) > 0 {
		n := min(len(docs), maxBatch)
		if _, err := ix.addBatch(docs[:n], stored); err != nil {
			return err
		}
		docs = docs[n:]
	}
	return nil
}
