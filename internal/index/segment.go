package index

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"uniask/internal/trace"
	"uniask/internal/vector"
)

// Segmented is the LSM-style index store: a small mutable memtable absorbs
// Add/Delete while immutable sealed segments are searched read-only, and a
// background compactor merges sealed segments off the query path. It
// satisfies the same Repository surface as a plain *Index, so the search,
// ingestion and persistence layers run on either interchangeably; the shard
// facade holds one Segmented per shard.
//
// Search visibility is immediate: queries always see memtable documents,
// scored with corpus statistics collected live across every part
// (CollectStats + Merge + SearchTextGlobal — the exact machinery the shard
// facade uses for cross-shard BM25), so rankings stay byte-identical to a
// monolithic index holding the same documents. What is deferred is
// *publication*: the stats snapshot key (StatsKey) rotates only when a
// non-empty memtable seals or a compaction drops tombstones — the two
// events that move the published idf curve — so query caches keyed on it
// survive writes that have not been published yet, the near-real-time
// refresh semantics of Lucene/Elasticsearch.
//
// "Immutable" for a sealed segment means it absorbs no new documents; like
// a Lucene segment with its live-docs bitset, deletes still tombstone
// chunks inside it (tombstones do not change BM25 statistics, so no
// publication happens). Compaction rebuilds a run of adjacent sealed
// segments into one, dropping tombstones and reclaiming posting and graph
// space.
//
// Concurrency matches the monolithic index: any number of concurrent
// readers racing a single live writer. The store-level RWMutex guards only
// the parts topology (which *Index is the memtable, which are sealed); each
// part has its own internal lock. Sealing re-labels the memtable object in
// place — no data is copied or rebuilt — so a search racing a seal sees the
// same documents and statistics either way, and can never observe a
// half-merged stats snapshot. Merges are the only code that splices the
// sealed list, they run one at a time (mergeMu), and the splice happens
// under the exclusive lock with deletes that arrived during the merge
// re-applied first.
type Segmented struct {
	cfg  Config
	scfg SegmentConfig

	mu     sync.RWMutex
	mem    *Index   // mutable memtable; always non-nil
	sealed []*Index // immutable sealed segments, oldest first

	statsKey atomic.Uint64
	journal  *DeleteJournal

	// seq stamps every chunk id with its arrival ordinal across the whole
	// store — the cross-segment equivalent of the monolithic insertion
	// ordinal, used to break vector-distance ties exactly like a single
	// index would (same trick the shard facade plays across shards).
	seqMu   sync.RWMutex
	seq     map[string]uint64
	nextSeq uint64

	seals           atomic.Uint64
	compactions     atomic.Uint64
	chunksSealed    atomic.Uint64 // chunks that entered a sealed segment
	chunksRewritten atomic.Uint64 // chunks re-added by merges
	compacting      atomic.Bool   // single background compactor guard
	mergeMu         sync.Mutex    // one merge (pick, rebuild, splice) at a time
	wg              sync.WaitGroup
}

// SegmentConfig tunes the segmented store's write path.
type SegmentConfig struct {
	// MemtableMaxDocs seals the memtable automatically once it holds this
	// many chunks (counting tombstones); 0 means DefaultMemtableMaxDocs,
	// negative disables auto-sealing so only Publish seals.
	MemtableMaxDocs int
	// CompactionFanIn is the number of adjacent sealed segments one
	// compaction merges; 0 means DefaultCompactionFanIn, negative disables
	// background compaction (CompactOnce still works when called). 1 is
	// refused (see Check).
	CompactionFanIn int
}

// BindFlags registers the two store flags on fs, writing straight into c —
// the one spelling of their names, defaults and help text that uniask and
// uniask-shard share.
func (c *SegmentConfig) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.MemtableMaxDocs, "memtable-max-docs", 0, "chunks per memtable before auto-seal (0 = 1024, negative disables auto-seal)")
	fs.IntVar(&c.CompactionFanIn, "compaction-fanin", 0, "sealed segments merged per compaction (0 = 4, negative disables compaction)")
}

// Check refuses a configuration the store cannot honour: a fan-in of 1
// would merge one segment into itself, so no run is ever picked and
// compaction is off without saying so. Both binaries run it on the parsed
// flags and exit 2 on its error; NewSegmented panics with it.
func (c SegmentConfig) Check() error {
	if c.CompactionFanIn == 1 {
		return fmt.Errorf("index: compaction fan-in %d merges nothing; want 0 (the default %d), at least 2, or a negative value to disable compaction", c.CompactionFanIn, DefaultCompactionFanIn)
	}
	return nil
}

// DefaultMemtableMaxDocs bounds the memtable at 1024 chunks — small enough
// that a seal publishes fresh statistics every couple of poll cycles at the
// paper's ingestion rate, large enough that bulk loads do not shatter into
// confetti segments.
const DefaultMemtableMaxDocs = 1024

// DefaultCompactionFanIn merges four adjacent segments per compaction, the
// classic tiered fan-in: enough to keep the segment count logarithmic in
// corpus size, small enough that one merge stays cheap and cancelable.
const DefaultCompactionFanIn = 4

// memtableMax resolves the configured memtable bound.
func (c SegmentConfig) memtableMax() int {
	if c.MemtableMaxDocs == 0 {
		return DefaultMemtableMaxDocs
	}
	return c.MemtableMaxDocs
}

// fanIn resolves the configured compaction fan-in.
func (c SegmentConfig) fanIn() int {
	if c.CompactionFanIn == 0 {
		return DefaultCompactionFanIn
	}
	return c.CompactionFanIn
}

// NewSegmented creates an empty segmented store. It panics on a
// configuration Check refuses.
func NewSegmented(cfg Config, scfg SegmentConfig) *Segmented {
	if err := scfg.Check(); err != nil {
		panic(err.Error())
	}
	s := &Segmented{
		scfg:    scfg,
		mem:     New(cfg),
		journal: NewDeleteJournal(),
		seq:     make(map[string]uint64),
	}
	// Adopt the memtable's normalized config (schema and BM25 defaults
	// filled in) so every future part is built identically.
	s.cfg = s.mem.cfg
	return s
}

// Compile-time checks: the segmented store is a drop-in Repository for the
// engine.
var (
	_ Repository = (*Segmented)(nil)
	_ Publisher  = (*Segmented)(nil)
)

// parts returns a point-in-time view of the store: every sealed segment in
// order, then the memtable. The slice is a private copy; the *Index parts
// are shared and internally synchronized.
func (s *Segmented) parts() []*Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.partsLocked()
}

// partsLocked is parts with s.mu already held.
func (s *Segmented) partsLocked() []*Index {
	out := make([]*Index, 0, len(s.sealed)+1)
	out = append(out, s.sealed...)
	out = append(out, s.mem)
	return out
}

// StatsKey identifies the published BM25 stats snapshot. Unlike a plain
// index — where every Add moves the key because statistics shift
// immediately — the segmented store rotates it only at publication points:
// a non-empty memtable sealing, or a compaction dropping tombstones. Writes
// between publications are searchable at once but do not invalidate caches
// keyed on this snapshot.
func (s *Segmented) StatsKey() uint64 { return s.statsKey.Load() }

// DeletesSince drains the store's delete journal from cursor (see
// Queryable).
func (s *Segmented) DeletesSince(cursor uint64) (ids []string, next uint64, ok bool) {
	return s.journal.Since(cursor)
}

// assignSeq stamps id with the next arrival sequence.
func (s *Segmented) assignSeq(id string) {
	s.seqMu.Lock()
	s.seq[id] = s.nextSeq
	s.nextSeq++
	s.seqMu.Unlock()
}

// Add indexes a document into the memtable: a bulk load of one.
func (s *Segmented) Add(doc Document) error {
	_, err := s.AddBulkCounted([]Document{doc})
	return err
}

// AddBulk indexes docs in order, stopping at the first error (see
// AddBulkCounted).
func (s *Segmented) AddBulk(docs []Document) error {
	_, err := s.AddBulkCounted(docs)
	return err
}

// AddBulkCounted indexes docs in order, stopping at the first error, and
// reports how many documents, from the front of docs, it applied. docs is
// cut into runs that end where the memtable fills (it seals there, so a
// bulk load always produces the segment layout one-at-a-time Adds produce)
// or after maxBatch documents. Each run is checked against the sealed
// segments — a duplicate id, or a vector of another dimension than its
// field's, is refused across every part, not just the memtable, since a
// fresh memtable has no dimension of its own yet — and its accepted prefix
// goes to the memtable in one addBatch.
func (s *Segmented) AddBulkCounted(docs []Document) (applied int, err error) {
	return s.addBulk(docs, false)
}

// AddStored is AddBulkCounted for documents read back from a store (Doc,
// DocsByID, LiveDocs of this or another one), whose vectors are views of
// a vector index's unit-length arena: they go into the graphs verbatim, so
// re-adding a store's documents — a shard-count migration — rebuilds the
// graphs their first insert built.
func (s *Segmented) AddStored(docs []Document) (applied int, err error) {
	return s.addBulk(docs, true)
}

// addBulk is AddBulkCounted; stored is addBatch's.
func (s *Segmented) addBulk(docs []Document, stored bool) (applied int, err error) {
	limit := s.scfg.memtableMax()
	for applied < len(docs) && err == nil {
		s.mu.RLock()
		mem := s.mem
		n := min(len(docs)-applied, maxBatch)
		if limit > 0 {
			n = min(n, max(1, limit-mem.Len()))
		}
		run := docs[applied : applied+n]
		for i, d := range run {
			if err = sealedRefuses(s.sealed, d); err != nil {
				run = run[:i]
				break
			}
		}
		s.mu.RUnlock()
		if len(run) == 0 {
			break
		}
		k, memErr := mem.addBatch(run, stored)
		if memErr != nil {
			err = memErr
		}
		for _, d := range run[:k] {
			s.assignSeq(d.ID)
		}
		applied += k
		if limit > 0 && mem.Len() >= limit {
			s.seal()
			s.maybeCompact()
		}
	}
	return applied, err
}

// sealedRefuses reports why doc may not join the store given its sealed
// segments (a live copy of its id, or a vector of another dimension), or
// nil. The caller holds s.mu.
func sealedRefuses(sealed []*Index, doc Document) error {
	if liveInAny(sealed, doc.ID) {
		return fmt.Errorf("%w: %s", ErrDuplicateID, doc.ID)
	}
	for _, seg := range sealed {
		if err := seg.acceptsDims(doc.Vectors); err != nil {
			return err
		}
	}
	return nil
}

// Delete tombstones a chunk in whichever part holds it. Sealed segments
// accept tombstones (their document set is what is immutable); statistics
// do not change, so no publication happens — the delete journal carries the
// id to caches instead.
//
// The store read lock is held for the whole operation, not just the parts
// snapshot: the compactor's segment splice runs under the exclusive lock,
// so a delete can never land on a segment the splice is about to retire and
// silently miss the merged replacement.
func (s *Segmented) Delete(chunkID string) bool {
	s.mu.RLock()
	ok := false
	for _, part := range s.partsLocked() {
		if part.Delete(chunkID) {
			ok = true
			break
		}
	}
	s.mu.RUnlock()
	if ok {
		s.journal.Record(chunkID)
	}
	return ok
}

// DeleteParent tombstones every chunk of a KB document across all parts and
// returns how many chunks were removed. Like Delete it holds the store read
// lock throughout so it cannot interleave with a compaction splice.
func (s *Segmented) DeleteParent(parentID string) int {
	s.mu.RLock()
	var removed []string
	for _, part := range s.partsLocked() {
		ids := part.ParentChunkIDs(parentID)
		if len(ids) == 0 {
			continue
		}
		part.DeleteParent(parentID)
		removed = append(removed, ids...)
	}
	s.mu.RUnlock()
	for _, id := range removed {
		s.journal.Record(id)
	}
	return len(removed)
}

// ParentChunkIDs returns the live chunk ids of a KB document across all
// parts (see the method on *Index).
func (s *Segmented) ParentChunkIDs(parentID string) []string {
	var ids []string
	for _, part := range s.parts() {
		ids = append(ids, part.ParentChunkIDs(parentID)...)
	}
	return ids
}

// HasParents implements Writer over one view of the parts: present[i]
// reports whether any part holds a live chunk of KB document ids[i].
func (s *Segmented) HasParents(ids []string) (present []bool, err error) {
	present = make([]bool, len(ids))
	for _, part := range s.parts() {
		for i, id := range ids {
			present[i] = present[i] || part.HasParent(id)
		}
	}
	return present, nil
}

// Publish seals the memtable (when non-empty) and schedules background
// compaction — the store's publication point, called by the ingestion layer
// after each bulk load or poll cycle like a search engine's
// refresh-after-bulk. Queries already see the documents; Publish is what
// rotates the stats snapshot key so caches recompute against the new
// statistics.
func (s *Segmented) Publish() {
	s.seal()
	s.maybeCompact()
}

// seal converts a non-empty memtable into the newest sealed segment and
// installs a fresh memtable. The sealed *Index is the same object the
// memtable was — no data moves, so a concurrent search observes identical
// documents and statistics through either topology and a torn stats
// snapshot is structurally impossible. The sealed part never receives
// another Add, so its graphs' construction state goes.
func (s *Segmented) seal() {
	s.mu.Lock()
	if s.mem.Len() == 0 {
		s.mu.Unlock()
		return
	}
	out := s.mem
	s.chunksSealed.Add(uint64(out.Len()))
	s.sealed = append(s.sealed, out)
	s.mem = New(s.cfg)
	s.mu.Unlock()
	out.releaseBuildState()
	s.seals.Add(1)
	// Publication: the sealed documents' contribution to the idf curve is
	// now permanent, so snapshots scored before them are stale.
	s.statsKey.Add(1)
}

// segSize is what the merge policy sees of one sealed segment.
type segSize struct{ live, tombstones int }

// sealedSizesLocked lists the sealed segments' sizes, oldest first, with
// s.mu held.
func (s *Segmented) sealedSizesLocked() []segSize {
	sizes := make([]segSize, len(s.sealed))
	for i, seg := range s.sealed {
		sizes[i].live, sizes[i].tombstones = seg.sizes()
	}
	return sizes
}

// pickRun is the merge policy, a pure function of the sealed segments' sizes
// (oldest first): among the runs of fan adjacent segments it returns the
// start of the eligible one with the fewest live chunks, oldest on ties. A
// run is eligible when rewriting its largest member is paid for by what the
// merge gains:
//
//	largest.live <= (run's live - largest.live) + run's tombstones
//
// so every chunk a merge rewrites either lands in a segment at least twice
// the live size of the one it left, or is matched by a tombstone the merge
// reclaims. CompactOnce, maybeCompact and the Backlog gauge all ask this
// one function whether a merge is owed.
func pickRun(sizes []segSize, fan int) (start int, ok bool) {
	if fan <= 1 {
		return 0, false
	}
	bestLive := 0
	for i := 0; i+fan <= len(sizes); i++ {
		live, tombstones, largest := 0, 0, 0
		for _, sz := range sizes[i : i+fan] {
			live += sz.live
			tombstones += sz.tombstones
			largest = max(largest, sz.live)
		}
		if largest > live-largest+tombstones {
			continue
		}
		if !ok || live < bestLive {
			start, bestLive, ok = i, live, true
		}
	}
	return start, ok
}

// mergesOwed plays the policy forward over a size list and counts the
// merges CompactOnce would perform before the store is at rest.
func mergesOwed(sizes []segSize, fan int) int {
	sizes = append([]segSize(nil), sizes...)
	owed := 0
	for {
		i, ok := pickRun(sizes, fan)
		if !ok {
			return owed
		}
		owed++
		live := 0
		for _, sz := range sizes[i : i+fan] {
			live += sz.live
		}
		keep := 0
		if live > 0 { // a run of nothing but tombstones merges to nothing
			sizes[i], keep = segSize{live: live}, 1
		}
		sizes = append(sizes[:i+keep], sizes[i+fan:]...)
	}
}

// maybeCompact starts the background compactor when the policy owes a merge
// and no compactor is already running. At most one compactor goroutine
// exists at a time; it keeps merging until the store is at rest.
func (s *Segmented) maybeCompact() {
	s.mu.RLock()
	_, owed := pickRun(s.sealedSizesLocked(), s.scfg.fanIn())
	s.mu.RUnlock()
	if !owed {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.compacting.Store(false)
		for {
			merged, err := s.CompactOnce(context.Background())
			if err != nil || !merged {
				return
			}
		}
	}()
}

// WaitCompaction blocks until the background compactor (if any) finishes
// its current run. Deterministic tests and snapshot writers use it to
// quiesce the store.
func (s *Segmented) WaitCompaction() { s.wg.Wait() }

// CompactOnce merges one run of adjacent sealed segments into a single
// segment, dropping tombstones. It reports whether a merge happened (false
// when the policy finds no run worth merging — the store is at rest, however
// many segments it holds). The merge is:
//
//   - size-tiered: exactly fanIn adjacent segments (adjacency keeps arrival
//     order), chosen by pickRun: the run with the fewest live chunks among
//     those whose largest member is no bigger than the rest of the run plus
//     the tombstones the merge reclaims. A big segment is therefore never
//     rewritten to absorb a trickle of small ones, and a page edit costs
//     O(log N) rewritten chunks, not O(N);
//   - lazy about reclamation, but bounded: the same inequality makes a run
//     eligible again once tombstones outweigh its largest member's live
//     chunks, so a segment is rewritten at the latest when it is more than
//     half dead. Until then its tombstoned chunks keep counting toward N,
//     average length and document frequency, exactly as they do on a
//     monolithic index; the delete journal, not compaction, is what keeps
//     results exact;
//   - deterministic: documents re-add in arrival order (segment order,
//     then ordinal order), so the merged segment's postings, ordinals and
//     HNSW graphs are reproducible;
//   - cancelable: ctx is checked between slices of at most maxBatch
//     documents, and a canceled merge leaves the store untouched;
//   - off the query path: the rebuild runs without store locks; only the
//     final splice takes the write lock, and it re-applies deletes only
//     from segments whose tombstone count moved during the rebuild.
func (s *Segmented) CompactOnce(ctx context.Context) (bool, error) {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	fan := s.scfg.fanIn()
	s.mu.RLock()
	start, ok := pickRun(s.sealedSizesLocked(), fan)
	if !ok {
		s.mu.RUnlock()
		return false, nil
	}
	window := append([]*Index(nil), s.sealed[start:start+fan]...)
	s.mu.RUnlock()
	if err := s.merge(ctx, start, window); err != nil {
		return false, err
	}
	return true, nil
}

// CompactAll merges every sealed segment into one tombstone-free segment
// regardless of the policy — the store's counterpart of (*Index).Compact,
// for callers that need the fully reclaimed state (parity suites comparing
// against a compacted monolithic index, an operator's offline rewrite). The
// memtable is left alone; Publish first to include it.
func (s *Segmented) CompactAll(ctx context.Context) error {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	s.mu.RLock()
	window := append([]*Index(nil), s.sealed...)
	s.mu.RUnlock()
	if len(window) == 0 || len(window) == 1 && window[0].Tombstones() == 0 {
		return nil
	}
	return s.merge(ctx, 0, window)
}

// merge rebuilds window — the sealed run at offset start — into one segment
// and splices it in. The caller holds mergeMu, so the run can only have been
// joined by newer segments behind it, never moved.
func (s *Segmented) merge(ctx context.Context, start int, window []*Index) error {
	sourceLen := 0
	for _, seg := range window {
		sourceLen += seg.Len()
	}
	_, sp := trace.Start(ctx, "index.compact",
		trace.A("segments", strconv.Itoa(len(window))),
		trace.A("chunks", strconv.Itoa(sourceLen)))
	defer sp.End()

	merged := New(s.cfg)
	tombstones := make([]int, len(window)) // per segment, as rebuilt
	var dropped []string
	for i, seg := range window {
		live, dead := seg.liveAndDead()
		tombstones[i] = len(dead)
		dropped = append(dropped, dead...)
		for len(live) > 0 {
			if err := ctx.Err(); err != nil {
				sp.SetError(err)
				return err
			}
			n := min(len(live), maxBatch)
			if _, err := merged.addBatch(live[:n], true); err != nil {
				sp.SetError(err)
				return fmt.Errorf("index: compact: %w", err)
			}
			live = live[n:]
		}
	}
	merged.releaseBuildState()

	s.mu.Lock()
	if start+len(window) > len(s.sealed) || s.sealed[start] != window[0] {
		s.mu.Unlock()
		err := fmt.Errorf("index: compact: sealed run moved under the one-merge-at-a-time contract")
		sp.SetError(err)
		return err
	}
	// Deletes that landed in the window during the rebuild are re-applied
	// before the swap so no tombstone is lost. A sealed segment's tombstone
	// count only grows, so an unchanged count means nothing to re-apply —
	// the common case, and the reason queries wait here for O(1), not O(N).
	for i, seg := range window {
		if seg.Tombstones() == tombstones[i] {
			continue
		}
		for _, id := range seg.tombstonedIDs() {
			// An id tombstoned here may live on in a newer segment of the
			// run (an edit sealed in between); that copy stays.
			if !liveInAny(window, id) {
				merged.Delete(id)
			}
		}
	}
	tail := s.sealed[start+len(window):]
	if merged.Len() > 0 { // a run of nothing but tombstones merges to nothing
		tail = append([]*Index{merged}, tail...)
	}
	s.sealed = append(s.sealed[:start], tail...)
	s.mu.Unlock()

	s.compactions.Add(1)
	s.chunksRewritten.Add(uint64(merged.Len()))
	sp.SetAttr("dropped", strconv.Itoa(len(dropped)))
	if len(dropped) > 0 {
		s.forgetSeq(dropped)
		// Dropping tombstones shrinks N, total lengths and document
		// frequencies — a new published stats snapshot.
		s.statsKey.Add(1)
	}
	return nil
}

// liveInAny reports whether any of parts holds id live.
func liveInAny(parts []*Index, id string) bool {
	for _, part := range parts {
		if part.holdsLive(id) {
			return true
		}
	}
	return false
}

// forgetSeq drops the arrival sequence of every id a merge just dropped the
// last copy of. An id that is live again somewhere (an edited page re-adds
// its chunk ids) keeps its entry — that is the sequence of the live copy.
// The store read lock pins the parts while the sequence lock makes the
// check-and-delete atomic against assignSeq, which Add calls after the
// memtable insert.
func (s *Segmented) forgetSeq(ids []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts := s.partsLocked()
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	for _, id := range ids {
		if !liveInAny(parts, id) {
			delete(s.seq, id)
		}
	}
}

// Len counts chunks across all parts, including tombstones still held in
// segments (compaction reclaims them).
func (s *Segmented) Len() int {
	n := 0
	for _, part := range s.parts() {
		n += part.Len()
	}
	return n
}

// LiveLen counts live chunks across all parts.
func (s *Segmented) LiveLen() int {
	n := 0
	for _, part := range s.parts() {
		n += part.LiveLen()
	}
	return n
}

// Doc returns the document at a global ordinal, where ordinals concatenate
// the parts in order (sealed segments oldest-first, then the memtable). The
// mapping is only stable between mutations and compactions; use DocByID to
// identify documents.
func (s *Segmented) Doc(ord int) Document {
	for _, part := range s.parts() {
		if n := part.Len(); ord < n {
			return part.Doc(ord)
		} else {
			ord -= n
		}
	}
	panic(fmt.Sprintf("index: segmented ordinal %d out of range", ord))
}

// DocByID fetches a live document from whichever part holds it.
func (s *Segmented) DocByID(id string) (Document, bool) {
	for _, part := range s.parts() {
		if d, ok := part.DocByID(id); ok {
			return d, true
		}
	}
	return Document{}, false
}

// DocsByID implements Queryable over one snapshot of the parts. Parts are
// visited in DocByID's order and only fill slots still empty, so each slot
// holds exactly what DocByID would have returned for its id.
func (s *Segmented) DocsByID(_ context.Context, ids []string) ([]Document, int) {
	docs := make([]Document, len(ids))
	for _, part := range s.parts() {
		part.fillDocsByID(ids, docs)
	}
	return docs, 0
}

// VectorFields lists the vector fields (schema-derived, identical in every
// part). The store lock covers the memtable pointer read — seal swaps it.
func (s *Segmented) VectorFields() []string {
	s.mu.RLock()
	mem := s.mem
	s.mu.RUnlock()
	return mem.VectorFields()
}

// SearchableFields lists the searchable fields (schema-derived, identical
// in every part; same locking note as VectorFields).
func (s *Segmented) SearchableFields() []string {
	s.mu.RLock()
	mem := s.mem
	s.mu.RUnlock()
	return mem.SearchableFields()
}

// LiveDocs concatenates the parts' live documents in part order — which is
// arrival order, because segments seal oldest-first and compaction
// preserves relative order inside the run it merges.
func (s *Segmented) LiveDocs() []Document {
	var out []Document
	for _, part := range s.parts() {
		out = append(out, part.LiveDocs()...)
	}
	return out
}

// CollectStats merges every part's BM25 statistics — the store's
// contribution when it is one shard of the sharded facade.
func (s *Segmented) CollectStats(fields, terms []string) CorpusStats {
	var cs CorpusStats
	for _, part := range s.parts() {
		cs.Merge(part.CollectStats(fields, terms))
	}
	return cs
}

// SearchText ranks chunks across all parts with Okapi BM25 and returns the
// global top n. With one part it is a plain delegated search; with several,
// statistics are first collected across every part and merged, then each
// part scores with the aggregate (SearchTextGlobal) — the same two-wave
// scheme the shard facade uses, which is what keeps the segmented ranking
// byte-identical to a monolithic index over the same documents.
func (s *Segmented) SearchText(query string, n int, opts TextOptions) []Hit {
	parts := s.parts()
	if len(parts) == 1 {
		return parts[0].SearchText(query, n, opts)
	}
	if n <= 0 {
		return nil
	}
	terms := analyzer.AnalyzeTerms(query)
	if len(terms) == 0 {
		return nil
	}
	fields := opts.Fields
	if len(fields) == 0 {
		fields = s.SearchableFields()
	}
	var global CorpusStats
	for _, part := range parts {
		global.Merge(part.CollectStats(fields, terms))
	}
	return searchPartsGlobal(parts, query, n, opts, &global)
}

// SearchTextGlobal scores every part with caller-provided global statistics
// and merges — the per-shard leg of a sharded query, where the facade has
// already merged statistics across shards (and therefore across this
// store's parts, via CollectStats above).
func (s *Segmented) SearchTextGlobal(query string, n int, opts TextOptions, stats *CorpusStats) []Hit {
	parts := s.parts()
	if len(parts) == 1 {
		return parts[0].SearchTextGlobal(query, n, opts, stats)
	}
	return searchPartsGlobal(parts, query, n, opts, stats)
}

// searchPartsGlobal runs the scoring wave over each part with shared global
// statistics and merges the per-part top-n under the canonical text order.
func searchPartsGlobal(parts []*Index, query string, n int, opts TextOptions, stats *CorpusStats) []Hit {
	var merged []Hit
	for _, part := range parts {
		merged = append(merged, part.SearchTextGlobal(query, n, opts, stats)...)
	}
	SortHits(merged)
	if len(merged) > n {
		merged = merged[:n]
	}
	return merged
}

// SearchVector runs an ANN query across all parts and merges the per-part
// candidates into the global top-k, breaking score ties by arrival
// sequence then id — reproducing the insertion-ordinal tiebreak of a
// monolithic exhaustive index, exactly like the shard facade does across
// shards. The query is normalized once here, not once per part.
func (s *Segmented) SearchVector(field string, q vector.Vector, k int, filters []Filter) []Hit {
	qn := vector.Normalize(append(vector.Vector(nil), q...))
	return s.SearchVectorUnit(field, qn, k, filters)
}

// SearchVectorUnit is SearchVector for an already unit-length query (the
// shard facade normalizes once per request before fanning out).
func (s *Segmented) SearchVectorUnit(field string, q vector.Vector, k int, filters []Filter) []Hit {
	parts := s.parts()
	if len(parts) == 1 {
		return parts[0].SearchVectorUnit(field, q, k, filters)
	}
	if k <= 0 {
		return nil
	}
	var merged []Hit
	for _, part := range parts {
		merged = append(merged, part.SearchVectorUnit(field, q, k, filters)...)
	}
	seqs := make([]uint64, len(merged))
	s.seqMu.RLock()
	for i, h := range merged {
		seqs[i] = s.seq[h.ID]
	}
	s.seqMu.RUnlock()
	sort.Sort(&segSeqTie{hits: merged, seqs: seqs})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// segSeqTie orders hits by score descending, ties broken by arrival
// sequence ascending, then id ascending.
type segSeqTie struct {
	hits []Hit
	seqs []uint64
}

func (b *segSeqTie) Len() int { return len(b.hits) }

func (b *segSeqTie) Swap(i, j int) {
	b.hits[i], b.hits[j] = b.hits[j], b.hits[i]
	b.seqs[i], b.seqs[j] = b.seqs[j], b.seqs[i]
}

func (b *segSeqTie) Less(i, j int) bool {
	if b.hits[i].Score != b.hits[j].Score {
		return b.hits[i].Score > b.hits[j].Score
	}
	if b.seqs[i] != b.seqs[j] {
		return b.seqs[i] < b.seqs[j]
	}
	return b.hits[i].ID < b.hits[j].ID
}

// Stats sums the parts' gauge snapshots (docs, postings, ...), matching the
// shape a monolithic index reports on the dashboard.
func (s *Segmented) Stats() Stats {
	var st Stats
	for _, part := range s.parts() {
		ps := part.Stats()
		st.Docs += ps.Docs
		st.Live += ps.Live
		st.Tombstones += ps.Tombstones
		st.Terms += ps.Terms
		st.Postings += ps.Postings
	}
	return st
}

// SegmentStats is the segmented store's dashboard gauge snapshot.
type SegmentStats struct {
	// MemtableDocs counts chunks currently buffered in the memtable.
	MemtableDocs int
	// Segments counts sealed segments awaiting queries and compaction.
	Segments int
	// Seals counts memtable seals since process start.
	Seals uint64
	// Compactions counts completed merges since process start.
	Compactions uint64
	// Backlog is the number of merges the policy owes right now: positive
	// exactly when CompactOnce would merge, 0 when the store is at rest —
	// which it can be with more sealed segments than the fan-in. A value
	// that keeps growing means ingest outruns the compactor.
	Backlog int
	// StatsKey is the current published stats snapshot key.
	StatsKey uint64
	// Docs/Live/Tombstones total the chunk counts across all parts.
	Docs, Live, Tombstones int
	// ChunksSealed counts the chunks memtable seals turned into segments
	// since process start, ChunksRewritten the chunks merges re-added;
	// their ratio is the store's write amplification.
	ChunksSealed, ChunksRewritten uint64
}

// SegmentStats computes the gauge snapshot for the monitoring dashboard.
func (s *Segmented) SegmentStats() SegmentStats {
	s.mu.RLock()
	mem, sizes := s.mem, s.sealedSizesLocked()
	s.mu.RUnlock()
	st := SegmentStats{
		Segments:        len(sizes),
		Seals:           s.seals.Load(),
		Compactions:     s.compactions.Load(),
		Backlog:         mergesOwed(sizes, s.scfg.fanIn()),
		StatsKey:        s.statsKey.Load(),
		ChunksSealed:    s.chunksSealed.Load(),
		ChunksRewritten: s.chunksRewritten.Load(),
	}
	st.Live, st.Tombstones = mem.sizes()
	st.MemtableDocs = st.Live + st.Tombstones
	for _, sz := range sizes {
		st.Live += sz.live
		st.Tombstones += sz.tombstones
	}
	st.Docs = st.Live + st.Tombstones
	return st
}
