package index

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"uniask/internal/vector"
)

// exhaustiveCfg builds an index config on the exact k-NN backend: per-part
// HNSW graphs are legitimately different graphs than one monolithic HNSW,
// so graph-based vector parity would compare two approximations. Exhaustive
// search makes both sides exact and the comparison meaningful (same
// rationale as the shard parity suite).
func exhaustiveCfg() Config {
	return Config{VectorIndex: func(string) vector.Index { return vector.NewExhaustive() }}
}

// segCorpus generates n deterministic documents with vectors, shaped like
// the concurrency fixture's corpus.
func segCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(11))
	domains := []string{"prodotti", "pagamenti", "errori"}
	docs := make([]Document, 0, n)
	for i := 0; i < n; i++ {
		v := make(vector.Vector, 16)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		docs = append(docs, Document{
			ID:       fmt.Sprintf("s%03d#0", i),
			ParentID: fmt.Sprintf("s%03d", i),
			Fields: map[string]string{
				"title":   fmt.Sprintf("Procedura %d per il conto corrente", i),
				"content": fmt.Sprintf("La procedura operativa %d prevede controlli sul conto e verifica del codice PRC-%03d.", i, i%37),
				"domain":  domains[i%len(domains)],
			},
			Vectors: map[string]vector.Vector{"contentVector": v},
		})
	}
	return docs
}

// segQueries are text queries that spread matches across the whole corpus.
var segQueries = []string{
	"procedura per verificare il conto corrente",
	"controlli sul conto",
	"codice PRC-005",
	"verifica del codice operativo",
	"conto",
}

// assertTextParity compares SearchText rankings (ids and scores; ordinals
// are part-local by design) between two stores for every fixture query.
func assertTextParity(t *testing.T, label string, mono, seg Queryable) {
	t.Helper()
	for _, q := range segQueries {
		want := mono.SearchText(q, 20, TextOptions{})
		got := seg.SearchText(q, 20, TextOptions{})
		if len(want) != len(got) {
			t.Fatalf("%s %q: %d hits, monolithic %d", label, q, len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
				t.Fatalf("%s %q: hit %d = {%s %v}, monolithic {%s %v}",
					label, q, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

// assertVectorParity compares SearchVector rankings between two stores.
func assertVectorParity(t *testing.T, label string, mono, seg Queryable, q vector.Vector) {
	t.Helper()
	want := mono.SearchVector("contentVector", q, 15, nil)
	got := seg.SearchVector("contentVector", q, 15, nil)
	if len(want) != len(got) {
		t.Fatalf("%s vector: %d hits, monolithic %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
			t.Fatalf("%s vector: hit %d = {%s %v}, monolithic {%s %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// segQueryVec is the deterministic query vector of the parity tests.
func segQueryVec() vector.Vector {
	rng := rand.New(rand.NewSource(23))
	q := make(vector.Vector, 16)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	return q
}

// TestSegmentedParityLiveMemtable is the core acceptance check: a segmented
// store with several sealed segments AND a live (non-empty) memtable must
// rank byte-identically to a monolithic index over the same documents —
// global statistics are collected across parts at query time, so unpublished
// writes score exactly as if the index were one flat structure.
func TestSegmentedParityLiveMemtable(t *testing.T) {
	docs := segCorpus(50)
	mono := New(exhaustiveCfg())
	// Memtable of 8 with compaction disabled: 50 docs yield 6 sealed
	// segments plus 2 documents live in the memtable.
	seg := NewSegmented(exhaustiveCfg(), SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	for _, d := range docs {
		if err := mono.Add(d); err != nil {
			t.Fatal(err)
		}
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if st := seg.SegmentStats(); st.Segments < 2 || st.MemtableDocs == 0 {
		t.Fatalf("fixture did not produce sealed segments plus a live memtable: %+v", st)
	}
	assertTextParity(t, "live-memtable", mono, seg)
	assertVectorParity(t, "live-memtable", mono, seg, segQueryVec())

	// Deletes tombstone in place on both sides and must not break parity
	// (statistics keep counting tombstones on both sides).
	for i := 0; i < 50; i += 7 {
		id := fmt.Sprintf("s%03d#0", i)
		if !mono.Delete(id) || !seg.Delete(id) {
			t.Fatalf("delete %s failed", id)
		}
	}
	if mono.LiveLen() != seg.LiveLen() {
		t.Fatalf("live count %d, monolithic %d", seg.LiveLen(), mono.LiveLen())
	}
	assertTextParity(t, "post-delete", mono, seg)
	assertVectorParity(t, "post-delete", mono, seg, segQueryVec())
}

// TestSegmentedParityAfterCompaction checks the other end of the lifecycle:
// after deletes and a full compaction cycle, the segmented store must rank
// identically to a monolithic index compacted over the same documents —
// compaction reclaims tombstones without perturbing relative order.
func TestSegmentedParityAfterCompaction(t *testing.T) {
	docs := segCorpus(48)
	mono := New(exhaustiveCfg())
	// Background compaction stays off during the build so the deletes land
	// across six distinct sealed segments (48 docs / memtable of 8).
	seg := NewSegmented(exhaustiveCfg(), SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: -1})
	for _, d := range docs {
		if err := mono.Add(d); err != nil {
			t.Fatal(err)
		}
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i += 5 {
		id := fmt.Sprintf("s%03d#0", i)
		if !mono.Delete(id) || !seg.Delete(id) {
			t.Fatalf("delete %s failed", id)
		}
	}
	// Drain the backlog synchronously until the policy is at rest, then
	// merge what it left: the policy reclaims lazily, Compact on the
	// monolithic side does not.
	seg.scfg.CompactionFanIn = 2
	for {
		merged, err := seg.CompactOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !merged {
			break
		}
	}
	if err := seg.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	compacted, err := mono.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if seg.Tombstones() != 0 {
		t.Fatalf("full compaction left %d tombstones", seg.Tombstones())
	}
	if compacted.Len() != seg.Len() || compacted.LiveLen() != seg.LiveLen() {
		t.Fatalf("size after compaction = %d/%d live, compacted monolithic %d/%d",
			seg.Len(), seg.LiveLen(), compacted.Len(), compacted.LiveLen())
	}
	assertTextParity(t, "post-compaction", compacted, seg)
	assertVectorParity(t, "post-compaction", compacted, seg, segQueryVec())
}

// TestSegmentedStatsKeySemantics pins the publication contract: Add and
// Delete never rotate the stats snapshot key; sealing a non-empty memtable
// rotates it; sealing an empty one does not; a compaction rotates it only
// when it dropped tombstones.
func TestSegmentedStatsKeySemantics(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: 2})
	docs := segCorpus(12)

	base := seg.StatsKey()
	for _, d := range docs[:4] {
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := seg.StatsKey(); got != base {
		t.Fatalf("Add rotated the stats key: %d -> %d", base, got)
	}

	seg.Publish()
	seg.WaitCompaction()
	afterSeal := seg.StatsKey()
	if afterSeal == base {
		t.Fatal("sealing a non-empty memtable did not rotate the stats key")
	}

	// Publishing with an empty memtable is a no-op.
	seg.Publish()
	seg.WaitCompaction()
	if got := seg.StatsKey(); got != afterSeal {
		t.Fatalf("empty seal rotated the stats key: %d -> %d", afterSeal, got)
	}

	// Deletes tombstone without rotation; the journal carries the ids.
	if !seg.Delete("s000#0") {
		t.Fatal("delete failed")
	}
	if got := seg.StatsKey(); got != afterSeal {
		t.Fatalf("Delete rotated the stats key: %d -> %d", afterSeal, got)
	}
	ids, _, ok := seg.DeletesSince(0)
	if !ok || len(ids) != 1 || ids[0] != "s000#0" {
		t.Fatalf("journal = %v ok=%v, want [s000#0]", ids, ok)
	}

	// A compaction over segments holding a tombstone drops it and rotates.
	for _, d := range docs[4:8] {
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	seg.Publish() // second sealed segment -> backlog reaches fan-in 2
	seg.WaitCompaction()
	rotated := seg.StatsKey()
	if rotated == afterSeal {
		t.Fatal("publish of the second batch did not rotate")
	}
	if st := seg.SegmentStats(); st.Tombstones != 0 {
		t.Fatalf("compaction left %d tombstones", st.Tombstones)
	}

	// A compaction with nothing to drop must NOT rotate.
	for _, d := range docs[8:10] {
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	seg.Publish()
	seg.WaitCompaction()
	afterThird := seg.StatsKey()
	if err := seg.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := seg.SegmentStats(); st.Segments != 1 || st.Compactions != 2 {
		t.Fatalf("full merge of [8, 2] did not run: %+v", st)
	}
	if got := seg.StatsKey(); got != afterThird {
		t.Fatalf("tombstone-free compaction rotated the stats key: %d -> %d", afterThird, got)
	}
}

// TestSegmentedDuplicateAcrossParts rejects an id that lives in a sealed
// segment, not just the memtable.
func TestSegmentedDuplicateAcrossParts(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1})
	docs := segCorpus(3)
	for _, d := range docs {
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	seg.Publish() // docs now in a sealed segment
	if err := seg.Add(docs[1]); err == nil {
		t.Fatal("duplicate id across a sealed segment accepted")
	}
}

// TestSegmentedDeleteParentAcrossParts tombstones a parent's chunks wherever
// they live and reports them through the journal.
func TestSegmentedDeleteParentAcrossParts(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1})
	for i := 0; i < 2; i++ {
		err := seg.Add(Document{
			ID: fmt.Sprintf("p1#%d", i), ParentID: "p1",
			Fields: map[string]string{"content": "testo"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seg.Publish()
	// A third chunk of the same parent lands in the fresh memtable.
	err := seg.Add(Document{ID: "p1#2", ParentID: "p1", Fields: map[string]string{"content": "testo"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := seg.DeleteParent("p1"); n != 3 {
		t.Fatalf("DeleteParent removed %d chunks, want 3", n)
	}
	if present, _ := seg.HasParents([]string{"p1"}); present[0] {
		t.Fatal("parent still visible after DeleteParent")
	}
	ids, _, ok := seg.DeletesSince(0)
	if !ok || len(ids) != 3 {
		t.Fatalf("journal = %v ok=%v, want 3 ids", ids, ok)
	}
}

// TestSegmentedCompactCancel verifies a canceled merge is abandoned cleanly:
// error out, store topology untouched.
func TestSegmentedCompactCancel(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 4, CompactionFanIn: -1})
	for _, d := range segCorpus(16) {
		if err := seg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	before := seg.SegmentStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// CompactOnce with fan-in disabled reports no merge; re-enable manually.
	seg.scfg.CompactionFanIn = 2
	if merged, err := seg.CompactOnce(ctx); err == nil || merged {
		t.Fatalf("canceled compaction: merged=%v err=%v, want error", merged, err)
	}
	after := seg.SegmentStats()
	if before.Segments != after.Segments || after.Compactions != 0 {
		t.Fatalf("canceled compaction changed the store: before=%+v after=%+v", before, after)
	}
}

// TestSegmentedBackgroundCompactionKeepsUp verifies auto-seal plus the
// background compactor: a bulk load at a tiny memtable bound must leave the
// backlog below the fan-in once quiesced, with every document still
// searchable and arrival order preserved.
func TestSegmentedBackgroundCompactionKeepsUp(t *testing.T) {
	seg := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 4})
	docs := segCorpus(100)
	if err := seg.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	seg.Publish()
	seg.WaitCompaction()
	st := seg.SegmentStats()
	if st.Backlog != 0 {
		t.Fatalf("compactor left a backlog: %+v", st)
	}
	if st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("expected seals and compactions to have run: %+v", st)
	}
	if seg.LiveLen() != len(docs) {
		t.Fatalf("live count %d, want %d", seg.LiveLen(), len(docs))
	}
	live := seg.LiveDocs()
	for i, d := range live {
		if d.ID != docs[i].ID {
			t.Fatalf("arrival order broken at %d: %s, want %s", i, d.ID, docs[i].ID)
		}
	}
}

// holdsBuildState reports whether any of part's HNSW graphs holds its
// build state, the pair cache with it.
func holdsBuildState(part *Index) bool {
	for _, vx := range part.vecs {
		if vx.(*vector.HNSW).HoldsBuildState() {
			return true
		}
	}
	return false
}

// TestSealDropsBuildCache: a graph keeps its construction cache only while
// it can still grow. Sealing drops the outgoing memtable's, a merge drops
// its result's, and a later Add to the fresh memtable builds as before.
func TestSealDropsBuildCache(t *testing.T) {
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: -1})
	docs := segCorpus(61)
	sealedClean := func(when string) {
		t.Helper()
		for i, seg := range s.sealed {
			if holdsBuildState(seg) {
				t.Fatalf("%s: sealed segment %d holds build state", when, i)
			}
		}
	}
	for round := 0; round < 2; round++ {
		for _, d := range docs[round*30 : (round+1)*30] {
			if err := s.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		if !holdsBuildState(s.mem) {
			t.Fatal("a memtable being built holds no build state")
		}
		s.Publish()
		sealedClean("after Publish")
	}
	if err := s.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.sealed) != 1 {
		t.Fatalf("CompactAll left %d sealed segments, want 1", len(s.sealed))
	}
	sealedClean("after a merge")
	last := docs[60]
	if err := s.Add(last); err != nil {
		t.Fatal(err)
	}
	if hits := s.SearchVector("contentVector", last.Vectors["contentVector"], 1, nil); len(hits) != 1 || hits[0].ID != last.ID {
		t.Fatalf("nearest neighbour of the chunk added after the merge = %+v, want %s", hits, last.ID)
	}
}
