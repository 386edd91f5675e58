package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uniask/internal/vector"
)

// bulkStep is one write applied to both twins of an equivalence check: a
// batch of documents, a delete of one KB document, or a publication.
type bulkStep struct {
	docs    []Document
	del     string
	publish bool
}

// bulkVecPool holds a few vectors per dimension, so equal vectors — and
// therefore vector-score ties — recur across documents.
func bulkVecPool(seed int64) map[int][]vector.Vector {
	rng := rand.New(rand.NewSource(seed))
	pool := make(map[int][]vector.Vector)
	for _, dim := range []int{3, 8} {
		for i := 0; i < 5; i++ {
			v := make(vector.Vector, dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			pool[dim] = append(pool[dim], v)
		}
	}
	return pool
}

// bulkDoc is chunk 0 of page p. dim picks both vectors' length (0 is an
// empty vector), pick which pool vectors they are; unknown adds a field the
// schema lacks and noTitle drops the title vector.
func bulkDoc(p, dim, pick int, pool map[int][]vector.Vector, unknown, noTitle bool) Document {
	vec := func(k int) vector.Vector {
		if dim == 0 {
			return vector.Vector{}
		}
		return pool[dim][k%len(pool[dim])]
	}
	d := Document{
		ID:       fmt.Sprintf("b%02d#0", p),
		ParentID: fmt.Sprintf("b%02d", p),
		Fields: map[string]string{
			"title":   fmt.Sprintf("Pagina %d del conto", p%7),
			"content": fmt.Sprintf("testo %d della procedura sul conto corrente", p%5),
			"domain":  []string{"prodotti", "pagamenti"}[p%2],
		},
		Vectors: map[string]vector.Vector{"titleVector": vec(pick / 5), "contentVector": vec(pick)},
	}
	if unknown {
		d.Fields["bogus"] = "x"
	}
	if noTitle {
		delete(d.Vectors, "titleVector")
	}
	return d
}

// checkBulkMatchesAddLoop applies steps to two segmented stores, one through
// AddBulkCounted and a twin one Add at a time (stopping where the bulk
// write must stop), and fails unless every write reports the same applied
// count and error and the stores end up indistinguishable: segment stats,
// stats key, every part's saved graphs and search results, ties included.
func checkBulkMatchesAddLoop(t *testing.T, steps []bulkStep, memMax int) {
	t.Helper()
	scfg := SegmentConfig{MemtableMaxDocs: memMax, CompactionFanIn: -1}
	bulk, loop := NewSegmented(Config{}, scfg), NewSegmented(Config{}, scfg)
	for si, st := range steps {
		switch {
		case st.publish:
			bulk.Publish()
			loop.Publish()
		case st.del != "":
			if b, l := bulk.DeleteParent(st.del), loop.DeleteParent(st.del); b != l {
				t.Fatalf("step %d: DeleteParent(%s) removed %d in bulk, %d in loop", si, st.del, b, l)
			}
		default:
			applied, err := bulk.AddBulkCounted(st.docs)
			want, wantErr := len(st.docs), error(nil)
			for i, d := range st.docs {
				if wantErr = loop.Add(d); wantErr != nil {
					want = i
					break
				}
			}
			if applied != want || !sameRefusal(err, wantErr) {
				t.Fatalf("step %d (%d docs): bulk applied %d, err %v; loop applied %d, err %v",
					si, len(st.docs), applied, err, want, wantErr)
			}
		}
	}
	if b, l := bulk.SegmentStats(), loop.SegmentStats(); b != l {
		t.Fatalf("segment stats: bulk %+v, loop %+v", b, l)
	}
	if bulk.StatsKey() != loop.StatsKey() {
		t.Fatalf("stats key: bulk %d, loop %d", bulk.StatsKey(), loop.StatsKey())
	}
	bp, lp := bulk.parts(), loop.parts()
	for i := range bp {
		if bp[i].StatsKey() != lp[i].StatsKey() {
			t.Fatalf("part %d stats key: bulk %d, loop %d", i, bp[i].StatsKey(), lp[i].StatsKey())
		}
		for _, name := range bp[i].VectorFields() {
			if b, l := savedGraph(t, bp[i], name), savedGraph(t, lp[i], name); !bytes.Equal(b, l) {
				t.Fatalf("part %d: %s graphs differ (%d and %d bytes)", i, name, len(b), len(l))
			}
		}
	}
	for _, q := range []string{"pagina conto", "testo della procedura", "corrente 3"} {
		b, l := bulk.SearchText(q, 10, TextOptions{}), loop.SearchText(q, 10, TextOptions{})
		if !reflect.DeepEqual(b, l) {
			t.Fatalf("SearchText(%q): bulk %v, loop %v", q, b, l)
		}
	}
	for _, field := range bulk.VectorFields() {
		var q vector.Vector
		for _, d := range bulk.LiveDocs() {
			if v := d.Vectors[field]; len(v) > 0 {
				q = v
				break
			}
		}
		if q == nil {
			continue
		}
		b, l := bulk.SearchVector(field, q, 10, nil), loop.SearchVector(field, q, 10, nil)
		if !reflect.DeepEqual(b, l) {
			t.Fatalf("SearchVector(%s): bulk %v, loop %v", field, b, l)
		}
	}
}

// sameRefusal reports whether two write errors are the same refusal: the
// same sentinel, and the same message unless both are dimension refusals,
// which name whichever bad field map iteration meets first.
func sameRefusal(a, b error) bool {
	if errors.Is(a, ErrDuplicateID) != errors.Is(b, ErrDuplicateID) ||
		errors.Is(a, vector.ErrDimensionMismatch) != errors.Is(b, vector.ErrDimensionMismatch) {
		return false
	}
	return errors.Is(a, vector.ErrDimensionMismatch) || fmt.Sprint(a) == fmt.Sprint(b)
}

// savedGraph is the saved arena of one part's graph for field.
func savedGraph(t *testing.T, ix *Index, field string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.vecs[field].(*vector.HNSW).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAddBulkMatchesAddLoop: a bulk write is the loop of single adds. The
// seeded steps carry duplicate ids (in the batch, in the memtable and in
// sealed segments, live or tombstoned), unknown fields and vectors of
// another dimension mid-batch; memtable bounds make runs end at seal
// boundaries, and batches run longer than one slice.
func TestAddBulkMatchesAddLoop(t *testing.T) {
	pool := bulkVecPool(3)
	for _, tc := range []struct {
		seed   int64
		memMax int
		ids    int
	}{
		{1, 7, 40},
		{2, 300, 700},
		{3, -1, 900},
		{4, 0, 1500},
		{5, 64, 30},
	} {
		t.Run(fmt.Sprintf("seed%d_mem%d", tc.seed, tc.memMax), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var steps []bulkStep
			for len(steps) < 12 {
				switch r := rng.Intn(10); {
				case r == 0:
					steps = append(steps, bulkStep{publish: true})
				case r <= 2:
					steps = append(steps, bulkStep{del: fmt.Sprintf("b%02d", rng.Intn(tc.ids))})
				default:
					n := 1 + rng.Intn(600)
					docs := make([]Document, n)
					for i := range docs {
						dim := 8
						if rng.Intn(200) == 0 {
							dim = []int{0, 3}[rng.Intn(2)]
						}
						docs[i] = bulkDoc(rng.Intn(tc.ids), dim, rng.Intn(25), pool, rng.Intn(300) == 0, rng.Intn(4) == 0)
					}
					steps = append(steps, bulkStep{docs: docs})
				}
			}
			checkBulkMatchesAddLoop(t, steps, tc.memMax)
		})
	}
}

// FuzzAddBulk holds AddBulkCounted to the loop of single adds on arbitrary
// sequences of ids, vector dimensions (0 included), batch cuts, deletes and
// publications. The first byte sets the memtable bound; every later pair of
// bytes is one step.
func FuzzAddBulk(f *testing.F) {
	// An empty first vector, then a real one: the field kept dimension 0
	// and the graph panicked striding the second vector.
	f.Add([]byte{0, 0, 2, 1, 0})
	f.Add([]byte{2, 0, 0, 1, 0, 0, 16, 2, 3, 3, 0, 0, 32, 4, 4})
	f.Add([]byte{1, 5, 8, 5, 16, 6, 64, 5, 0, 7, 128})
	pool := bulkVecPool(5)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 401 {
			return
		}
		memMax := int(data[0]%6) - 1 // -1 disables auto-seal, 0 is the default
		var steps []bulkStep
		var batch []Document
		cut := func() {
			if len(batch) > 0 {
				steps = append(steps, bulkStep{docs: batch})
				batch = nil
			}
		}
		for i := 1; i+1 < len(data); i += 2 {
			p, op := int(data[i]%16), data[i+1]
			switch {
			case op&64 != 0:
				cut()
				steps = append(steps, bulkStep{del: fmt.Sprintf("b%02d", p)})
			case op&128 != 0:
				cut()
				steps = append(steps, bulkStep{publish: true})
			default:
				batch = append(batch, bulkDoc(p, []int{8, 8, 0, 3}[op&3], int(data[i]), pool, op&4 != 0, op&8 != 0))
				if op&16 != 0 {
					cut()
				}
			}
		}
		cut()
		checkBulkMatchesAddLoop(t, steps, memMax)
	})
}

// TestEmptyVectorRefused: a 0-length vector is refused before anything is
// stored, on an index and on a segmented store. It used to be taken as a
// field's first vector, leaving the field without a dimension; the next
// real vector was then accepted too, and the graph panicked striding it
// past the empty slot.
func TestEmptyVectorRefused(t *testing.T) {
	pool := bulkVecPool(3)
	for _, store := range []Repository{New(Config{}), NewSegmented(Config{}, SegmentConfig{})} {
		name := fmt.Sprintf("%T", store)
		empty := bulkDoc(1, 0, 0, pool, false, false)
		if err := store.Add(empty); !errors.Is(err, vector.ErrDimensionMismatch) {
			t.Fatalf("%s: empty vector: err = %v, want ErrDimensionMismatch", name, err)
		}
		if _, ok := store.DocByID(empty.ID); ok {
			t.Fatalf("%s: the refused chunk was stored", name)
		}
		real := bulkDoc(2, 8, 0, pool, false, false)
		if err := store.AddBulk([]Document{real, bulkDoc(3, 0, 0, pool, false, false)}); !errors.Is(err, vector.ErrDimensionMismatch) {
			t.Fatalf("%s: empty vector after a real one: err = %v, want ErrDimensionMismatch", name, err)
		}
		if hits := store.SearchVector("contentVector", real.Vectors["contentVector"], 5, nil); len(hits) != 1 || hits[0].ID != real.ID {
			t.Fatalf("%s: vector search = %+v, want [%s]", name, hits, real.ID)
		}
	}
}

// gatedVectors is an exact vector index that reports its first insert on
// started and holds the insert of id gate until released is closed (or a
// deadline passes), pinning a bulk load inside its last slice.
type gatedVectors struct {
	vector.Index
	gate              int
	started, released chan struct{}
}

func (g *gatedVectors) Add(id int, v vector.Vector) error {
	if id == 0 {
		close(g.started)
	}
	if id == g.gate {
		select {
		case <-g.released:
		case <-time.After(20 * time.Second):
		}
	}
	return g.Index.Add(id, v)
}

// TestReadersServedBetweenSlices: a SearchText started while a 1 024-chunk
// AddBulk runs returns before the AddBulk does — the bulk load holds the
// memtable's write lock one slice at a time, not for the whole run. The
// load's last insert waits for the search, so a load that kept the lock to
// the end would stall the search until the gate's deadline.
func TestReadersServedBetweenSlices(t *testing.T) {
	const n = 1024
	g := &gatedVectors{Index: vector.NewExhaustive(), gate: n - 1, started: make(chan struct{}), released: make(chan struct{})}
	cfg := Config{VectorIndex: func(field string) vector.Index {
		if field == "contentVector" {
			return g
		}
		return vector.NewExhaustive()
	}}
	seg := NewSegmented(cfg, SegmentConfig{CompactionFanIn: -1})
	vecs := benchVecPool(16, 8, 1)
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = benchSegDoc(i, vecs)
	}
	loaded := make(chan error, 1)
	go func() { loaded <- seg.AddBulk(docs) }()
	<-g.started
	seg.SearchText("bloccare la carta di credito", 10, TextOptions{})
	select {
	case err := <-loaded:
		t.Fatalf("the bulk load (err %v) returned before a search started during it", err)
	default:
	}
	close(g.released)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if seg.LiveLen() != n {
		t.Fatalf("LiveLen = %d, want %d", seg.LiveLen(), n)
	}
}
