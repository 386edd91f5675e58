// Package index implements the search index UniAsk builds over the chunked
// knowledge base — the reproduction of the Azure AI Search index described
// in §4 of the paper. Fields carry attributes (searchable, retrievable,
// filterable, vector); an inverted index with Okapi BM25 ranking is built
// for each searchable field, and an ANN index (HNSW by default) for each
// vector field.
package index

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"uniask/internal/textproc"
	"uniask/internal/vector"
)

// FieldAttr describes how a field may be used, mirroring Azure AI Search
// field attributes.
type FieldAttr struct {
	// Searchable fields participate in full-text search (inverted index).
	Searchable bool
	// Retrievable fields are returned in search results.
	Retrievable bool
	// Filterable fields support exact-match filtering.
	Filterable bool
	// Vector fields hold dense embeddings searched by ANN.
	Vector bool
}

// Schema maps field names to their attributes.
type Schema map[string]FieldAttr

// DefaultSchema is the UniAsk index schema from the paper: title, chunk
// content and summary are retrievable (title and content also searchable);
// domain, topic, section and keywords are filterable for exact matching;
// title and content have vector embeddings.
func DefaultSchema() Schema {
	return Schema{
		"title":    {Searchable: true, Retrievable: true},
		"content":  {Searchable: true, Retrievable: true},
		"summary":  {Searchable: true, Retrievable: true},
		"domain":   {Filterable: true},
		"section":  {Filterable: true},
		"topic":    {Filterable: true},
		"keywords": {Filterable: true},

		"titleVector":   {Vector: true},
		"contentVector": {Vector: true},
	}
}

// Document is one indexable unit (a chunk of a KB document).
type Document struct {
	// ID is the unique chunk identifier (e.g. "kb00042#1").
	ID string
	// ParentID is the identifier of the KB document the chunk belongs to.
	ParentID string
	// Fields holds the textual field values.
	Fields map[string]string
	// Vectors holds the embedding field values. The index stores documents
	// without them; a document read back from it carries a map made for the
	// read, of read-only views of the vector indexes' unit-length arenas —
	// the index keeps no other copy of an embedding. A re-insert of it (a
	// compaction merge, Compact, a shard migration) goes through a path
	// that copies those bits verbatim (addBatch's stored flag,
	// Segmented.AddStored).
	Vectors map[string]vector.Vector
}

// posting is one (document, term-frequency) pair in a posting list.
type posting struct {
	doc int32
	tf  int32
}

// fieldIndex is the inverted index of a single searchable field.
type fieldIndex struct {
	postings map[string][]posting
	docLens  []int
	totalLen int
}

// BM25Params are the Okapi BM25 constants.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 matches the Lucene/Azure defaults.
var DefaultBM25 = BM25Params{K1: 1.2, B: 0.75}

// Config controls index construction.
type Config struct {
	// Schema defaults to DefaultSchema().
	Schema Schema
	// BM25 defaults to DefaultBM25.
	BM25 BM25Params
	// VectorIndex constructs the ANN index for a vector field; defaults to
	// HNSW with a seed derived from the field name.
	VectorIndex func(field string) vector.Index
}

// Index is the searchable chunk store.
//
// Concurrency: an Index is safe for any number of concurrent readers
// (SearchText, SearchVector, Doc, DocByID, ...) racing a single live writer
// (Add, Delete, DeleteParent) — the 15-minute ingestion poller updating the
// index under production query traffic. Readers take mu.RLock, writers take
// mu.Lock. The staleness signals a query cache keys on — StatsKey and the
// delete journal — are readable without holding any lock.
type Index struct {
	cfg      Config
	mu       sync.RWMutex
	statsKey atomic.Uint64
	journal  *DeleteJournal
	docs     []Document
	byID     map[string]int32
	byParent map[string][]int32 // live chunk ordinals per KB document
	deleted  map[int32]bool     // tombstoned ordinals
	fields   map[string]*fieldIndex
	vecs     map[string]vector.Index
	dims     Dims                          // vector field -> established dimension
	filters  map[string]map[string][]int32 // field -> value -> docs

	// searchNames and vecNames are the sorted searchable / vector field
	// names, computed once at construction (the schema is immutable after
	// New) so the query path never re-sorts them.
	searchNames []string
	vecNames    []string

	// filterCache memoizes the ordinal bitset of each (field, value) pair;
	// Add invalidates exactly the entries whose value it extends. Guarded
	// by fcMu (mu alone is not enough: concurrent readers populate it).
	fcMu        sync.Mutex
	filterCache map[filterKey][]uint64

	// accPool recycles the flat score accumulators of the BM25 hot path.
	accPool sync.Pool

	// writeHolds counts the write-lock holds addBatch has taken; the bulk
	// load benchmark reports it per load.
	writeHolds int
}

// analyzer is the analysis every index applies to its searchable fields
// and to queries: Lucene's it-analyzer-lucene-full, as deployed.
var analyzer = textproc.ItalianFull()

// QueryTerms analyzes query as every index analyzes its searchable fields,
// so a caller that gathers term statistics across indexes asks for the
// terms they store.
func QueryTerms(query string) []string { return analyzer.AnalyzeTerms(query) }

// ErrDuplicateID is returned when a document id is added twice.
var ErrDuplicateID = errors.New("index: duplicate document id")

// New creates an empty index.
func New(cfg Config) *Index {
	if cfg.Schema == nil {
		cfg.Schema = DefaultSchema()
	}
	if cfg.BM25.K1 == 0 && cfg.BM25.B == 0 {
		cfg.BM25 = DefaultBM25
	}
	if cfg.VectorIndex == nil {
		cfg.VectorIndex = func(field string) vector.Index {
			var seed int64
			for _, c := range field {
				seed = seed*131 + int64(c)
			}
			// EfConstruction 80 trades a little graph quality for much
			// faster bulk indexing; recall parity with exhaustive k-NN at
			// the K values UniAsk uses is verified in the ablation benches.
			return vector.NewHNSW(vector.HNSWConfig{Seed: seed, EfConstruction: 80})
		}
	}
	ix := &Index{
		cfg:         cfg,
		journal:     NewDeleteJournal(),
		byID:        make(map[string]int32),
		byParent:    make(map[string][]int32),
		fields:      make(map[string]*fieldIndex),
		vecs:        make(map[string]vector.Index),
		dims:        make(Dims),
		filters:     make(map[string]map[string][]int32),
		filterCache: make(map[filterKey][]uint64),
	}
	for name, attr := range cfg.Schema {
		if attr.Searchable {
			ix.fields[name] = &fieldIndex{postings: make(map[string][]posting)}
			ix.searchNames = append(ix.searchNames, name)
		}
		if attr.Vector {
			ix.vecs[name] = cfg.VectorIndex(name)
			ix.vecNames = append(ix.vecNames, name)
		}
		if attr.Filterable {
			ix.filters[name] = make(map[string][]int32)
		}
	}
	sort.Strings(ix.searchNames)
	sort.Strings(ix.vecNames)
	return ix
}

// StatsKey identifies the BM25 stats snapshot queries are currently scored
// under. On a plain mutable index every Add changes the corpus statistics
// immediately, so the key advances with each Add; Delete leaves it alone,
// because tombstones keep contributing to N, average length and DF exactly
// as before (deleted chunks are instead invalidated precisely through
// DeletesSince). The segmented store overrides this with
// publication-granular semantics: its key rotates only when a memtable seal
// or compaction publishes new statistics.
func (ix *Index) StatsKey() uint64 { return ix.statsKey.Load() }

// DeletesSince returns the chunk ids deleted at or after cursor and the
// cursor to resume from; ok is false when the bounded journal has dropped
// entries the caller has not seen (the caller should then discard all cached
// results). A zero cursor reads from the journal's retained start.
func (ix *Index) DeletesSince(cursor uint64) (ids []string, next uint64, ok bool) {
	return ix.journal.Since(cursor)
}

// Len reports the number of chunks ever inserted, including tombstoned
// ones; LiveLen counts only searchable chunks.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Schema returns the index schema.
func (ix *Index) Schema() Schema { return ix.cfg.Schema }

// Add indexes a document: a batch of one (see addBatch). Vector fields
// present in the schema but missing from the document are skipped; unknown
// fields are an error, and so is a vector whose length differs from the
// first one its field stored, or an empty one (vector.ErrDimensionMismatch)
// — all refused before anything is stored.
func (ix *Index) Add(doc Document) error {
	_, err := ix.addBatch([]Document{doc}, false)
	return err
}

// maxBatch bounds the documents one addBatch takes under one write-lock
// hold, so a reader racing a bulk load waits for at most one slice.
const maxBatch = 256

// addBatch indexes docs in order under one write-lock hold — the one write
// path every Add, bulk load and rebuild goes through. It first checks every
// document (duplicate id in the index or earlier in docs, schema fields,
// vector dimensions); the first refused one ends the batch, so applied is
// the length of the accepted prefix and err the refusal. The prefix is then
// stored: each vector field's graph takes the whole prefix in ordinal order
// on its own goroutine while the postings are built beside them. Every
// graph receives the same vectors in the same order from its own seeded
// generator, so it is the graph one-at-a-time inserts build.
//
// stored says the documents were read back from an index, so their
// vectors are arena views already of unit length: the graphs copy them
// verbatim (vector.Index.AddUnit) instead of normalizing them again.
func (ix *Index) addBatch(docs []Document, stored bool) (applied int, err error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.writeHolds++
	seen := make(map[string]bool, len(docs))
	for _, doc := range docs {
		if err = ix.refuses(doc, seen); err != nil {
			break
		}
		seen[doc.ID] = true
		ix.dims.Note(doc.Vectors)
		applied++
	}
	docs = docs[:applied]
	if applied == 0 {
		return 0, err
	}
	// Bump before the first mutation: a too-early bump only costs a cache
	// miss while a missed bump would serve stale results — on a mutable
	// index every Add shifts the idf curve at once.
	ix.statsKey.Add(uint64(applied))
	base := int32(len(ix.docs))
	for _, doc := range docs {
		doc.Vectors = nil // read from the graphs (see views)
		ix.docs = append(ix.docs, doc)
	}
	ix.fcMu.Lock()
	for i, doc := range docs {
		id := base + int32(i)
		ix.byID[doc.ID] = id
		ix.byParent[doc.ParentID] = append(ix.byParent[doc.ParentID], id)
		for name, vals := range ix.filters {
			if v, ok := doc.Fields[name]; ok && v != "" {
				vals[v] = append(vals[v], id)
				delete(ix.filterCache, filterKey{field: name, value: v})
			}
		}
	}
	ix.fcMu.Unlock()

	// One task per vector field any document carries, plus the postings;
	// all but the last run on their own goroutines, the last inline. The
	// checks above leave a graph nothing to refuse, so an error here is a
	// broken invariant: the prefix is stored, and the error reported.
	tasks := []func() error{func() error { ix.addPostings(base, docs); return nil }}
	for _, name := range ix.vecNames {
		for _, doc := range docs {
			if _, ok := doc.Vectors[name]; ok {
				tasks = append(tasks, func() error { return ix.addGraph(name, base, docs, stored) })
				break
			}
		}
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks[:len(tasks)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = task()
		}()
	}
	errs[len(tasks)-1] = tasks[len(tasks)-1]()
	wg.Wait()
	if e := errors.Join(errs...); e != nil {
		return applied, e
	}
	return applied, err
}

// refuses reports why doc may not join the index after the batch documents
// in seen, or nil. The caller holds ix.mu for writing.
func (ix *Index) refuses(doc Document, seen map[string]bool) error {
	if _, dup := ix.byID[doc.ID]; dup || seen[doc.ID] {
		return fmt.Errorf("%w: %s", ErrDuplicateID, doc.ID)
	}
	for f := range doc.Fields {
		if _, ok := ix.cfg.Schema[f]; !ok {
			return fmt.Errorf("index: field %q not in schema", f)
		}
	}
	for f := range doc.Vectors {
		if attr, ok := ix.cfg.Schema[f]; !ok || !attr.Vector {
			return fmt.Errorf("index: vector field %q not in schema", f)
		}
	}
	return ix.dims.Check(doc.Vectors)
}

// addPostings analyzes the searchable fields of docs, stored from ordinal
// base on, into the inverted indexes.
func (ix *Index) addPostings(base int32, docs []Document) {
	for i, doc := range docs {
		id := base + int32(i)
		for name, fi := range ix.fields {
			terms := analyzer.AnalyzeTerms(doc.Fields[name])
			fi.docLens = append(fi.docLens, len(terms))
			fi.totalLen += len(terms)
			counts := make(map[string]int32, len(terms))
			for _, t := range terms {
				counts[t]++
			}
			for t, c := range counts {
				fi.postings[t] = append(fi.postings[t], posting{doc: id, tf: c})
			}
		}
	}
}

// addGraph inserts the field's vector of each of docs, stored from ordinal
// base on, into the field's graph in ordinal order, stopping at the first
// insert the graph refuses. Vectors read back from an index (stored) go in
// verbatim, a caller's are normalized.
func (ix *Index) addGraph(field string, base int32, docs []Document, stored bool) error {
	vx := ix.vecs[field]
	add := vx.Add
	if stored {
		add = vx.AddUnit
	}
	for i, doc := range docs {
		v, ok := doc.Vectors[field]
		if !ok {
			continue
		}
		if err := add(int(base)+i, v); err != nil {
			return fmt.Errorf("index: vector field %q: %w", field, err)
		}
	}
	return nil
}

// views returns ordinal ord's vectors as views of the graphs' arenas, in a
// new map; nil when no graph holds ord. The caller holds ix.mu.
func (ix *Index) views(ord int) map[string]vector.Vector {
	var out map[string]vector.Vector
	for _, name := range ix.vecNames {
		if v := ix.vecs[name].Vec(ord); v != nil {
			if out == nil {
				out = make(map[string]vector.Vector, len(ix.vecNames))
			}
			out[name] = v
		}
	}
	return out
}

// Dims maps each vector field to its established dimension: the length of
// the first vector the field accepted. An index keeps one for its own
// vectors; the sharded facade keeps one across its shards.
type Dims map[string]int

// Check refuses an empty vector, and a vector whose length differs from its
// field's established dimension; a field with none yet accepts any other.
func (dims Dims) Check(vecs map[string]vector.Vector) error {
	for name, v := range vecs {
		if len(v) == 0 {
			return fmt.Errorf("index: vector field %q: empty vector: %w", name, vector.ErrDimensionMismatch)
		}
		if d := dims[name]; d != 0 && len(v) != d {
			return fmt.Errorf("index: vector field %q: %d-d vector, field holds %d-d: %w",
				name, len(v), d, vector.ErrDimensionMismatch)
		}
	}
	return nil
}

// Note establishes the dimension of every field in vecs that has none yet —
// the same first-vector rule the vector indexes apply.
func (dims Dims) Note(vecs map[string]vector.Vector) {
	for name, v := range vecs {
		if dims[name] == 0 {
			dims[name] = len(v)
		}
	}
}

// acceptsDims is Dims.Check against this index's established dimensions,
// under the read lock.
func (ix *Index) acceptsDims(vecs map[string]vector.Vector) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.dims.Check(vecs)
}

// releaseBuildState frees what the part keeps only for construction,
// under the part's write lock: its vector indexes' build state and spare
// arena capacity, and the slack that appends leave in its document list,
// field lengths, posting lists and filter lists. The segmented store calls
// it on a part that receives no more Adds: a sealed memtable and a merge's
// result; Compact on its result.
func (ix *Index) releaseBuildState() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, vx := range ix.vecs {
		if r, ok := vx.(interface{ ReleaseBuildState() }); ok {
			r.ReleaseBuildState()
		}
	}
	ix.docs = slices.Clone(ix.docs)
	for _, fi := range ix.fields {
		fi.docLens = slices.Clone(fi.docLens)
		packLists(fi.postings)
	}
	for _, vals := range ix.filters {
		packLists(vals)
	}
}

// packLists copies the lists into one array of their total length. Each
// list is capped at its own end, so an append to it reallocates the list
// rather than writing over the next one's entries.
func packLists[T any](lists map[string][]T) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	arena := make([]T, 0, total)
	for k, l := range lists {
		start := len(arena)
		arena = append(arena, l...)
		lists[k] = arena[start:len(arena):len(arena)]
	}
}

// doc is the stored document at ord with its vectors' views; the caller
// holds ix.mu.
func (ix *Index) doc(ord int32) Document {
	d := ix.docs[ord]
	d.Vectors = ix.views(int(ord))
	return d
}

// Doc returns the stored document at the given internal ordinal.
func (ix *Index) Doc(ord int) Document {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.doc(int32(ord))
}

// DocByID returns a stored document by external id.
func (ix *Index) DocByID(id string) (Document, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ord, ok := ix.byID[id]
	if !ok {
		return Document{}, false
	}
	return ix.doc(ord), true
}

// holdsLive reports whether id is a live chunk of the index.
func (ix *Index) holdsLive(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byID[id]
	return ok
}

// DocsByID implements Queryable: one lock acquisition for the whole batch. A
// local index has no shards to lose and nothing to wait on, so the context
// is unused and shardsDown is always 0.
func (ix *Index) DocsByID(_ context.Context, ids []string) ([]Document, int) {
	docs := make([]Document, len(ids))
	ix.fillDocsByID(ids, docs)
	return docs, 0
}

// fillDocsByID stores the live document for ids[i] in docs[i] wherever the
// slot is still empty, under one read lock.
func (ix *Index) fillDocsByID(ids []string, docs []Document) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i, id := range ids {
		if docs[i].ID != "" {
			continue
		}
		if ord, ok := ix.byID[id]; ok {
			docs[i] = ix.doc(ord)
		}
	}
}

// Retrievable projects doc onto its retrievable fields (what a search
// result exposes).
func (ix *Index) Retrievable(doc Document) map[string]string {
	out := make(map[string]string)
	for f, v := range doc.Fields {
		if ix.cfg.Schema[f].Retrievable {
			out[f] = v
		}
	}
	return out
}
