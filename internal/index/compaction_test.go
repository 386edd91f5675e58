package index

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"uniask/internal/vector"
)

// sealedSizes lists the sealed segments' sizes, oldest first.
func sealedSizes(s *Segmented) []segSize {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealedSizesLocked()
}

// sealedLives lists the sealed segments' live chunk counts, oldest first.
func sealedLives(s *Segmented) []int {
	var lives []int
	for _, sz := range sealedSizes(s) {
		lives = append(lives, sz.live)
	}
	return lives
}

// sealChunks adds n fresh single-chunk pages (ids prefix#from ...) and seals
// them into one segment without starting the background compactor, so the
// test decides when the policy runs.
func sealChunks(t testing.TB, s *Segmented, prefix string, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		err := s.Add(Document{
			ID:       fmt.Sprintf("%s%04d#0", prefix, i),
			ParentID: fmt.Sprintf("%s%04d", prefix, i),
			Fields:   map[string]string{"content": fmt.Sprintf("procedura %d conto", i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.seal()
}

// TestCompactionTrickleLeavesBigSegmentAlone is the regression for the
// defect the size-tiered pick replaced: with one big segment and a trickle
// of small seals, reaching the fan-in used to merge the only run there was —
// the big segment included — so the whole corpus was rewritten every few
// passes. [big, s, s, s] must not merge; [big, s, s, s, s] merges the four
// small ones only.
func TestCompactionTrickleLeavesBigSegmentAlone(t *testing.T) {
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: 4})
	sealChunks(t, s, "big", 0, 64)
	big := s.sealed[0]
	for i := 0; i < 3; i++ {
		sealChunks(t, s, "s", 2*i, 2)
	}
	if merged, err := s.CompactOnce(context.Background()); err != nil || merged {
		t.Fatalf("[64 2 2 2] merged=%v err=%v: the trickle must not drag the big segment into a merge", merged, err)
	}
	if st := s.SegmentStats(); st.Backlog != 0 || st.Segments != 4 {
		t.Fatalf("[64 2 2 2] is at rest, gauges say %+v", st)
	}

	sealChunks(t, s, "s", 6, 2)
	if got := s.SegmentStats().Backlog; got != 1 {
		t.Fatalf("[64 2 2 2 2] owes one merge, Backlog = %d", got)
	}
	if merged, err := s.CompactOnce(context.Background()); err != nil || !merged {
		t.Fatalf("[64 2 2 2 2] merged=%v err=%v, want the four small segments merged", merged, err)
	}
	if got := fmt.Sprint(sealedLives(s)); got != "[64 8]" {
		t.Fatalf("sealed sizes after the merge = %s, want [64 8]", got)
	}
	if s.sealed[0] != big {
		t.Fatal("the big segment was rebuilt")
	}
	if st := s.SegmentStats(); st.ChunksRewritten != 8 || st.ChunksSealed != 72 {
		t.Fatalf("rewritten/sealed = %d/%d, want 8/72", st.ChunksRewritten, st.ChunksSealed)
	}
}

// TestCompactionReclaimsHalfDeadSegment pins the lazy-but-bounded
// reclamation the same inequality gives: a run whose largest member is alone
// too big to merge becomes eligible once the run's tombstones cover the
// difference — at the latest when that member is half dead.
func TestCompactionReclaimsHalfDeadSegment(t *testing.T) {
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: 2})
	sealChunks(t, s, "a", 0, 16)
	sealChunks(t, s, "b", 0, 4)
	// [16 4]: 16 > 4 + tombstones until 6 of the 16 are gone (10 <= 4 + 6).
	for i := 0; i < 6; i++ {
		if got := s.SegmentStats().Backlog; got != 0 {
			t.Fatalf("after %d deletes the run is not yet paid for, Backlog = %d", i, got)
		}
		s.DeleteParent(fmt.Sprintf("a%04d", i))
	}
	if merged, err := s.CompactOnce(context.Background()); err != nil || !merged {
		t.Fatalf("merged=%v err=%v, want the half-dead run merged", merged, err)
	}
	if st := s.SegmentStats(); st.Tombstones != 0 || st.Live != 14 || st.Segments != 1 {
		t.Fatalf("after reclamation: %+v", st)
	}
	// A run of nothing but tombstones merges to nothing.
	sealChunks(t, s, "c", 0, 1)
	sealChunks(t, s, "d", 0, 1)
	s.DeleteParent("c0000")
	s.DeleteParent("d0000")
	for {
		merged, err := s.CompactOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !merged {
			break
		}
	}
	if got := fmt.Sprint(sealedLives(s)); got != "[14]" {
		t.Fatalf("sealed sizes = %s, want [14] (the all-dead run leaves no segment)", got)
	}
}

// TestQuiesceContract is the contract bench/topology.go's quiesce loop
// relies on: Backlog > 0 exactly when a merge is owed. A store at rest with
// at least fan-in sealed segments reports 0, Publish on it starts no
// compactor, and the loop terminates. (Under the old "sealed - fan + 1"
// gauge this store reports 1 forever and set-up never returns.)
func TestQuiesceContract(t *testing.T) {
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: 4})
	from := 0
	for _, n := range []int{64, 8, 2, 2} {
		sealChunks(t, s, "q", from, n)
		from += n
	}
	if st := s.SegmentStats(); st.Segments != 4 || st.Backlog != 0 {
		t.Fatalf("[64 8 2 2] at rest reports %+v", st)
	}
	s.Publish()
	if s.compacting.Load() {
		t.Fatal("Publish on a store at rest started the compactor")
	}
	// The loop of bench/topology.go:quiesce, bounded so a broken contract
	// fails instead of hanging.
	quiesce := func() {
		for round := 0; ; round++ {
			if round == 100 {
				t.Fatalf("quiesce did not terminate: %+v", s.SegmentStats())
			}
			s.WaitCompaction()
			if s.SegmentStats().Backlog == 0 {
				return
			}
			s.Publish()
		}
	}
	quiesce()
	if st := s.SegmentStats(); st.Compactions != 0 || st.Segments != 4 {
		t.Fatalf("quiescing a store at rest merged something: %+v", st)
	}
	// With a merge owed the same loop drives it and still terminates.
	sealChunks(t, s, "q", from, 2)
	sealChunks(t, s, "q", from+2, 2)
	if got := s.SegmentStats().Backlog; got != 1 {
		t.Fatalf("[64 8 2 2 2 2] owes one merge, Backlog = %d", got)
	}
	quiesce()
	if got := fmt.Sprint(sealedLives(s)); got != "[64 8 8]" {
		t.Fatalf("sealed sizes after quiesce = %s, want [64 8 8]", got)
	}
}

// TestSegmentedSeqForgetsDroppedIDs is the regression for the arrival
// sequence leak: nothing ever deleted from Segmented.seq, and Save copies
// the whole map into the manifest, so the chunk ids of every page ever
// removed survived restarts. A merge that drops the last copy of an id must
// drop its sequence too — but not the sequence of an id an edit re-added.
func TestSegmentedSeqForgetsDroppedIDs(t *testing.T) {
	s := NewSegmented(exhaustiveCfg(), SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: -1})
	mono := New(exhaustiveCfg())
	// Four resident pages sharing one vector, so the vector ranking is all
	// ties and rests on the arrival sequence alone.
	same := vector.Vector{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	resident := func(i, rev int) Document {
		return Document{
			ID: fmt.Sprintf("keep%d#0", i), ParentID: fmt.Sprintf("keep%d", i),
			Fields:  map[string]string{"content": fmt.Sprintf("conto corrente revisione %d", rev)},
			Vectors: map[string]vector.Vector{"contentVector": same},
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Add(resident(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Publish()

	// saved reports how many sequences a snapshot's manifest carries.
	saved := func() int {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var m segManifest
		if err := OpenContainer(&buf).ReadManifest(SegmentedSnapshotMagic, segManifestVersion, &m, func() (int, int) { return m.Version, m.Segments + 1 }); err != nil {
			t.Fatal(err)
		}
		return len(m.Seq)
	}
	for round := 0; round < 12; round++ {
		// A transient page comes and goes; resident page round%4 is edited
		// (same chunk id, new sequence), which moves it behind the others
		// in every tie.
		tmp := segCorpus(round + 1)[round]
		tmp.Vectors = map[string]vector.Vector{"contentVector": same}
		if err := s.Add(tmp); err != nil {
			t.Fatal(err)
		}
		s.Publish()
		s.DeleteParent(tmp.ParentID)
		edited := resident(round%4, round+1)
		s.DeleteParent(edited.ParentID)
		if err := s.Add(edited); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			s.Publish() // odd rounds leave the edit live in the memtable
		}
		if err := s.CompactAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.seqMu.RLock()
		held := len(s.seq)
		s.seqMu.RUnlock()
		if held != s.LiveLen() || held != 4 {
			t.Fatalf("round %d: %d sequences held for %d live chunks", round, held, s.LiveLen())
		}
		if got := saved(); got != 4 {
			t.Fatalf("round %d: the saved manifest carries %d sequences for 4 chunks", round, got)
		}
	}
	// Tie-break parity: replay the live documents in arrival order into a
	// monolithic index; every hit ties, so any forgotten or stale sequence
	// reorders the result.
	for _, d := range s.LiveDocs() {
		if err := mono.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	assertVectorParity(t, "after-forget", mono, s, same)
}

// hookedVectors is an exact vector index whose AddUnit — the insert a
// merge's rebuild makes — first runs a hook: the seam the mid-merge test
// uses to land a delete between a merge's rebuild and its splice.
type hookedVectors struct {
	vector.Index
	hook *func()
}

func (h hookedVectors) AddUnit(id int, v vector.Vector) error {
	if *h.hook != nil {
		(*h.hook)()
	}
	return h.Index.AddUnit(id, v)
}

// TestCompactionReappliesMidMergeDeletes lands deletes while the merged
// segment is being rebuilt. The splice re-applies them from the segments
// whose tombstone count moved — and only what is dead in the whole run: an
// id tombstoned in an older segment of the run and re-added in a newer one
// (an edit sealed in between) keeps its live copy.
func TestCompactionReappliesMidMergeDeletes(t *testing.T) {
	var hook func()
	cfg := Config{VectorIndex: func(string) vector.Index {
		return hookedVectors{Index: vector.NewExhaustive(), hook: &hook}
	}}
	s := NewSegmented(cfg, SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: 2})
	docs := segCorpus(8)
	for _, d := range docs[:4] {
		if err := s.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s.seal()
	// Edit docs[0]: tombstoned in the first segment, live in the second.
	s.DeleteParent(docs[0].ParentID)
	for _, d := range append([]Document{docs[0]}, docs[4:7]...) {
		if err := s.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s.seal()

	fired := false
	hook = func() {
		if fired {
			return
		}
		fired = true
		// docs[1] was live when its segment was copied; docs[6] is copied
		// after this delete and never reaches the merged segment.
		if !s.Delete(docs[1].ID) || !s.Delete(docs[6].ID) {
			t.Error("mid-merge delete missed")
		}
	}
	merged, err := s.CompactOnce(context.Background())
	hook = nil
	if err != nil || !merged || !fired {
		t.Fatalf("merged=%v err=%v hook fired=%v", merged, err, fired)
	}
	for _, d := range []Document{docs[1], docs[6]} {
		if _, ok := s.DocByID(d.ID); ok {
			t.Fatalf("%s deleted mid-merge is live after the splice", d.ID)
		}
	}
	if _, ok := s.DocByID(docs[0].ID); !ok {
		t.Fatal("the re-added copy of an edited chunk was tombstoned by the re-apply")
	}
	if got := fmt.Sprint(sealedSizes(s)); got != "[{5 1}]" {
		t.Fatalf("sealed sizes = %s, want [{5 1}]: docs[1] re-applied as the only tombstone", got)
	}
}

// pickIsEligible re-states the policy's inequality for the checks below.
func pickIsEligible(run []segSize) bool {
	live, tombstones, largest := 0, 0, 0
	for _, sz := range run {
		live += sz.live
		tombstones += sz.tombstones
		largest = max(largest, sz.live)
	}
	return largest <= live-largest+tombstones
}

// checkPick holds pickRun to its specification on one size list.
func checkPick(t *testing.T, sizes []segSize, fan int) {
	t.Helper()
	start, ok := pickRun(sizes, fan)
	if fan <= 1 || len(sizes) < fan {
		if ok {
			t.Fatalf("pickRun(%v, %d) picked a run that cannot exist", sizes, fan)
		}
		return
	}
	live := func(run []segSize) (n int) {
		for _, sz := range run {
			n += sz.live
		}
		return n
	}
	if ok && (start < 0 || start+fan > len(sizes) || !pickIsEligible(sizes[start:start+fan])) {
		t.Fatalf("pickRun(%v, %d) = %d: not an eligible run", sizes, fan, start)
	}
	for i := 0; i+fan <= len(sizes); i++ {
		if !pickIsEligible(sizes[i : i+fan]) {
			continue
		}
		if !ok {
			t.Fatalf("pickRun(%v, %d) found nothing, run at %d is eligible", sizes, fan, i)
		}
		if l, best := live(sizes[i:i+fan]), live(sizes[start:start+fan]); l < best || l == best && i < start {
			t.Fatalf("pickRun(%v, %d) = %d (live %d), run at %d is smaller or older (live %d)", sizes, fan, start, best, i, l)
		}
	}
	// Backlog agrees with the pick and is bounded by the segments there are
	// to merge away.
	owed := mergesOwed(sizes, fan)
	if (owed > 0) != ok || owed*(fan-1) > len(sizes) {
		t.Fatalf("mergesOwed(%v, %d) = %d with pick ok=%v", sizes, fan, owed, ok)
	}
}

// FuzzCompactionPick fuzzes the pure policy function: whatever the size
// list, the pick is in range, eligible, the smallest and oldest such run,
// and the merges-owed gauge agrees with it. Wired into `make fuzz-short`.
func FuzzCompactionPick(f *testing.F) {
	f.Add([]byte{200, 0, 5, 0, 5, 0, 5, 0}, uint8(4))       // [big s s s]
	f.Add([]byte{200, 0, 5, 0, 5, 0, 5, 0, 5, 0}, uint8(4)) // [big s s s s]
	f.Add([]byte{16, 10, 4, 0}, uint8(2))                   // paid for by tombstones
	f.Add([]byte{0, 3, 0, 1}, uint8(2))                     // nothing but tombstones
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, fan uint8) {
		if len(data) > 64 {
			data = data[:64]
		}
		sizes := make([]segSize, len(data)/2)
		for i := range sizes {
			sizes[i] = segSize{live: int(data[2*i]), tombstones: int(data[2*i+1])}
		}
		checkPick(t, sizes, int(fan%8))
	})
}

// policyModel drives one seeded add / edit / remove / publish sequence
// against a store and checks the policy's guarantees after every merge.
type policyModel struct {
	t     *testing.T
	rng   *rand.Rand
	store *Segmented
	fan   int

	pages    map[int]int // live page -> chunk count
	nextPage int
	rev      int
	deletes  int // chunks tombstoned so far
	peakLive int
}

// policyVecs is a small vector pool: most vector scores tie, so the
// exhaustive ranking rests on the arrival sequence.
var policyVecs = benchVecPool(5, 8, 31)

var policyWords = []string{"conto", "corrente", "carta", "bonifico", "mutuo", "prestito", "deposito", "codice", "verifica", "blocco"}

func (m *policyModel) chunk(page, k int) Document {
	m.rev++
	w := func() string { return policyWords[m.rng.Intn(len(policyWords))] }
	return Document{
		ID:       fmt.Sprintf("p%04d#%d", page, k),
		ParentID: fmt.Sprintf("p%04d", page),
		Fields: map[string]string{
			"title":   "procedura " + w(),
			"content": fmt.Sprintf("%s %s %s revisione %d", w(), w(), w(), m.rev),
		},
		Vectors: map[string]vector.Vector{"contentVector": policyVecs[m.rng.Intn(len(policyVecs))]},
	}
}

func (m *policyModel) write(page, chunks int) {
	for k := 0; k < chunks; k++ {
		if err := m.store.Add(m.chunk(page, k)); err != nil {
			m.t.Fatal(err)
		}
	}
	m.pages[page] = chunks
}

func (m *policyModel) addPage() {
	m.write(m.nextPage, 1+m.rng.Intn(3))
	m.nextPage++
}

// somePage picks a live page, deterministically for the seed.
func (m *policyModel) somePage() (int, bool) {
	if len(m.pages) == 0 {
		return 0, false
	}
	for {
		if p := m.rng.Intn(m.nextPage); m.pages[p] > 0 {
			return p, true
		}
	}
}

func (m *policyModel) removePage(p int) {
	if got := m.store.DeleteParent(fmt.Sprintf("p%04d", p)); got != m.pages[p] {
		m.t.Fatalf("DeleteParent(p%04d) removed %d chunks, want %d", p, got, m.pages[p])
	}
	m.deletes += m.pages[p]
	delete(m.pages, p)
}

// publish seals the memtable and drains the policy on this goroutine
// (Publish would hand the same CompactOnce loop to the background
// compactor), checking the guarantees after every merge.
func (m *policyModel) publish() {
	m.store.seal()
	m.peakLive = max(m.peakLive, m.store.LiveLen())
	for {
		owed := m.store.SegmentStats().Backlog
		merged, err := m.store.CompactOnce(context.Background())
		if err != nil {
			m.t.Fatal(err)
		}
		// (d) the gauge and the compactor ask the same function.
		if (owed > 0) != merged {
			m.t.Fatalf("Backlog = %d but CompactOnce merged=%v (sealed %v)", owed, merged, sealedSizes(m.store))
		}
		if !merged {
			break
		}
		m.checkRankings()
		m.checkAmplification()
	}
	m.checkAtRest()
}

// checkRankings is (a): the store ranks like a monolithic index rebuilt
// from the store's own documents in arrival order — live ones added,
// still-tombstoned ones added then deleted, so both sides count the same
// tombstones in N, average length and document frequency. The documents'
// vectors are arena views, so they are re-added verbatim, as a merge does.
func (m *policyModel) checkRankings() {
	mono := New(exhaustiveCfg())
	for _, part := range m.store.parts() {
		part.mu.RLock()
		docs := make([]Document, len(part.docs))
		dead := make([]bool, len(docs))
		for ord := range docs {
			docs[ord] = part.doc(int32(ord))
			dead[ord] = part.isDeleted(int32(ord))
		}
		part.mu.RUnlock()
		for ord, d := range docs {
			if _, err := mono.addBatch([]Document{d}, true); err != nil {
				m.t.Fatal(err)
			}
			if dead[ord] {
				mono.Delete(d.ID)
			}
		}
	}
	if mono.Len() != m.store.Len() || mono.LiveLen() != m.store.LiveLen() {
		m.t.Fatalf("reference holds %d/%d live, store %d/%d", mono.Len(), mono.LiveLen(), m.store.Len(), m.store.LiveLen())
	}
	type rank struct {
		ID    string
		Score float64
	}
	ranks := func(hits []Hit) string {
		out := make([]rank, len(hits))
		for i, h := range hits {
			out[i] = rank{h.ID, h.Score} // ordinals are part-local by design
		}
		return fmt.Sprintf("%#v", out)
	}
	for _, q := range []string{"procedura conto corrente", "verifica codice carta", "revisione " + fmt.Sprint(m.rev/2)} {
		if want, got := ranks(mono.SearchText(q, 10, TextOptions{})), ranks(m.store.SearchText(q, 10, TextOptions{})); want != got {
			m.t.Fatalf("text %q diverged after a merge\nmono:  %s\nstore: %s", q, want, got)
		}
	}
	q := policyVecs[m.rev%len(policyVecs)]
	if want, got := ranks(mono.SearchVector("contentVector", q, 10, nil)), ranks(m.store.SearchVector("contentVector", q, 10, nil)); want != got {
		m.t.Fatalf("vector ranking diverged after a merge\nmono:  %s\nstore: %s", want, got)
	}
}

// checkAmplification is (c), the amortised bound of the inequality: a merge
// rewrites its largest member's chunks only when the rest of the run plus
// its tombstones cover them, so every rewritten chunk either at least
// doubles the live size of the segment it lives in (at most log2 N times)
// or is paid for by a tombstone the merge reclaims (once per delete).
func (m *policyModel) checkAmplification() {
	st := m.store.SegmentStats()
	n := float64(max(m.peakLive, 2))
	bound := float64(st.ChunksSealed)*(math.Log2(n)+1) + float64(m.deletes)
	if float64(st.ChunksRewritten) > bound {
		m.t.Fatalf("rewrote %d chunks for %d sealed and %d deleted at N=%d: over the bound %.0f",
			st.ChunksRewritten, st.ChunksSealed, m.deletes, m.peakLive, bound)
	}
}

// restBound is (b), the sealed-count bound the inequality gives a store at
// rest. At rest no window of fan adjacent segments is eligible, so each has
// one member with more live chunks than all the chunks (tombstones included,
// so at least one each) of the other fan-1 together. Read oldest to newest:
// where live sizes do not ascend, that member is the window's first, hence
//
//	l[i] > l[i+1] + ... + l[i+fan-1] >= (fan-1) * l[i+fan-1]
//
// and l[i] >= fan. Sizes along a non-ascending stretch therefore fall by
// more than (fan-1)x every fan-1 steps until the last window, which bounds
// the stretch by (fan-1)*(floor(log_{fan-1}(N/fan)) + 2) segments for fan >= 3. At
// fan-in 2 the inequality only says l[i] > l[i+1], i.e. sqrt(2N) + 1. An
// ascent (a segment with more live chunks than its older neighbour: a seal
// bigger than the one before it, or a fresh merge result) starts a new
// stretch, so the whole list is bounded by (ascents + 1) stretches. A
// trickle behind a bulk load has few ascents, which is what keeps the count
// logarithmic there; the inequality alone does not forbid many (the arrival
// order B s s s B s s s ... with B > 3s is at rest), see DESIGN.md §12.
func restBound(lives []int, fan, n int) int {
	ascents := 0
	for i := 1; i < len(lives); i++ {
		if lives[i] > lives[i-1] {
			ascents++
		}
	}
	stretch := int(math.Sqrt(float64(2*n))) + 1
	if g := fan - 1; g >= 2 {
		steps := 0 // floor(log_g(n/fan))
		for p := g; p*fan <= n; p *= g {
			steps++
		}
		stretch = g * (steps + 2)
	}
	return (ascents + 1) * stretch
}

func (m *policyModel) checkAtRest() {
	sizes := sealedSizes(m.store)
	for i := 0; i+m.fan <= len(sizes); i++ {
		if pickIsEligible(sizes[i : i+m.fan]) {
			m.t.Fatalf("store at rest holds an eligible run at %d: %v", i, sizes)
		}
	}
	lives := sealedLives(m.store)
	if bound := restBound(lives, m.fan, m.store.LiveLen()); len(lives) > bound {
		m.t.Fatalf("%d sealed segments at rest %v, bound %d at fan-in %d", len(lives), lives, bound, m.fan)
	}
}

// TestCompactionPolicyProperty runs seeded ingestion histories — a bulk
// first segment, then a long trickle of page adds, edits (delete + re-add of
// the same chunk ids) and removals with a publish after each pass — and
// holds the size-tiered policy to its guarantees after every merge:
// (a) rankings equal to a monolithic rebuild, (b) the sealed count bounded
// as restBound derives, (c) write amplification within the amortised bound,
// (d) Backlog == 0 exactly when CompactOnce returns false.
func TestCompactionPolicyProperty(t *testing.T) {
	const sequences = 240
	maxSealed, merges := 0, uint64(0)
	var rewritten, sealed uint64
	for seed := int64(0); seed < sequences; seed++ {
		fan := []int{4, 4, 3, 2}[seed%4]
		m := &policyModel{
			t: t, rng: rand.New(rand.NewSource(seed)), fan: fan, pages: make(map[int]int),
			store: NewSegmented(exhaustiveCfg(), SegmentConfig{MemtableMaxDocs: -1, CompactionFanIn: fan}),
		}
		for i, bulk := 0, 24+m.rng.Intn(24); i < bulk; i++ {
			m.addPage()
		}
		m.publish()
		for pass, passes := 0, 20+m.rng.Intn(12); pass < passes; pass++ {
			for op, ops := 0, 1+m.rng.Intn(3); op < ops; op++ {
				p, ok := m.somePage()
				switch r := m.rng.Intn(10); {
				case !ok || r < 3:
					m.addPage()
				case r < 8: // edit: same ids, new text, new arrival sequence
					chunks := m.pages[p]
					m.removePage(p)
					m.write(p, chunks)
				default:
					m.removePage(p)
				}
			}
			m.publish()
			maxSealed = max(maxSealed, len(sealedSizes(m.store)))
		}
		st := m.store.SegmentStats()
		merges += st.Compactions
		rewritten += st.ChunksRewritten
		sealed += st.ChunksSealed
	}
	if merges < sequences {
		t.Fatalf("only %d merges over %d sequences: the generator no longer exercises the policy", merges, sequences)
	}
	t.Logf("%d sequences: %d merges, %d chunks rewritten for %d sealed (x%.2f), at most %d sealed segments at rest",
		sequences, merges, rewritten, sealed, float64(rewritten)/float64(sealed), maxSealed)
}

// TestCompactAllRacesBackgroundCompactor checks the full merge and the
// background compactor serialize: both splice the sealed list, one at a
// time, and no document is lost or duplicated between them.
func TestCompactAllRacesBackgroundCompactor(t *testing.T) {
	s := NewSegmented(Config{}, SegmentConfig{MemtableMaxDocs: 4, CompactionFanIn: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.CompactAll(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	docs := segCorpus(120)
	for i, d := range docs {
		if err := s.Add(d); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			s.Delete(d.ID)
		}
	}
	wg.Wait()
	s.Publish()
	s.WaitCompaction()
	if err := s.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.SegmentStats(); st.Segments != 1 || st.Tombstones != 0 || st.Live != 80 {
		t.Fatalf("after the full merge: %+v", st)
	}
	for i, d := range s.LiveDocs() {
		if want := docs[i+i/2+1].ID; d.ID != want {
			t.Fatalf("arrival order broken at %d: %s, want %s", i, d.ID, want)
		}
	}
}
