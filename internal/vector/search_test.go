package vector

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// buildPair indexes the same n random dim-vectors into an HNSW (cfg) and an
// Exhaustive ground truth.
func buildPair(t *testing.T, n, dim int, seed int64, cfg HNSWConfig) (*HNSW, *Exhaustive, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := NewHNSW(cfg)
	e := NewExhaustive()
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		if err := h.Add(i, v); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return h, e, rng
}

// TestHNSWRecallAt15 pins the quality bar of the search path at the
// deployed K: recall@15 against exhaustive ground truth must stay at 0.95
// or better on the synthetic workload, with the same construction
// parameters the index layer uses (EfConstruction 80).
func TestHNSWRecallAt15(t *testing.T) {
	rec := recallAtK(t, 2000, 64, 15, 50, HNSWConfig{Seed: 3, EfConstruction: 80})
	if rec < 0.95 {
		t.Fatalf("HNSW recall@15 = %.3f, want >= 0.95", rec)
	}
}

// TestHNSWSearchUnitDistancesExact: every distance SearchUnit returns is
// the one the beam ranked by, 1 - dotF(q, v) of the unit query and the
// stored unit vector, bit for bit — with and without an accept filter, and
// in (distance, id) order.
func TestHNSWSearchUnitDistancesExact(t *testing.T) {
	h, _, rng := buildPair(t, 800, 48, 43, HNSWConfig{Seed: 11, EfConstruction: 80})
	for _, accept := range []Accept{nil, func(id int32) bool { return id%4 != 1 }} {
		for qi := 0; qi < 25; qi++ {
			q := Normalize(randVec(rng, 48))
			got := h.SearchUnit(q, 15, accept)
			if len(got) != 15 {
				t.Fatalf("query %d: %d results, want 15", qi, len(got))
			}
			for i, r := range got {
				if accept != nil && !accept(int32(r.ID)) {
					t.Fatalf("query %d rank %d: id %d violates accept", qi, i, r.ID)
				}
				want := 1 - dotF(q, h.vec(h.byID[r.ID]))
				if math.Float32bits(r.Distance) != math.Float32bits(want) {
					t.Fatalf("query %d rank %d (id %d): distance %v, want 1 - dotF = %v", qi, i, r.ID, r.Distance, want)
				}
				if i > 0 && !resultBefore(got[i-1], r) {
					t.Fatalf("query %d: rank %d %+v not after rank %d %+v", qi, i, r, i-1, got[i-1])
				}
			}
		}
	}
}

// TestHNSWSearchUnitAccept drives the filter pushdown: only accepted ids
// may surface, the result is full-length despite the filter, and recall on
// the accepted subset stays high because rejected nodes keep the graph
// navigable.
func TestHNSWSearchUnitAccept(t *testing.T) {
	h, e, rng := buildPair(t, 1000, 32, 41, HNSWConfig{Seed: 9, EfConstruction: 80})
	accept := func(id int32) bool { return id%3 == 0 }
	hits, total := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := randVec(rng, 32)
		truth := e.SearchUnit(q, 15, accept)
		got := h.SearchUnit(q, 15, accept)
		if len(got) != 15 {
			t.Fatalf("filtered search returned %d results, want 15", len(got))
		}
		truthSet := make(map[int]bool, len(truth))
		for _, r := range truth {
			truthSet[r.ID] = true
		}
		for _, r := range got {
			if int32(r.ID)%3 != 0 {
				t.Fatalf("result id %d violates accept predicate", r.ID)
			}
			if truthSet[r.ID] {
				hits++
			}
		}
		total += len(truth)
	}
	if rec := float64(hits) / float64(total); rec < 0.9 {
		t.Fatalf("filtered recall@15 = %.3f, want >= 0.9", rec)
	}
}

// TestHNSWSearchUnitAllocs pins the zero-alloc hot path: after the pool is
// warm, a search allocates only the caller-visible result slice.
func TestHNSWSearchUnitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the 1-alloc pin only holds un-raced")
	}
	rng := rand.New(rand.NewSource(51))
	h := NewHNSW(HNSWConfig{Seed: 7})
	for i := 0; i < 2000; i++ {
		if err := h.Add(i, randVec(rng, 64)); err != nil {
			t.Fatal(err)
		}
	}
	q := randVec(rng, 64)
	h.SearchUnit(q, 15, nil) // warm the state pool
	if n := testing.AllocsPerRun(50, func() { h.SearchUnit(q, 15, nil) }); n > 1 {
		t.Fatalf("SearchUnit allocates %.0f times per run, want <= 1 (the result slice)", n)
	}
}

// TestExhaustiveBoundedHeapMatchesFullSort cross-checks the bounded top-k
// heap against the full-sort reference order (distance asc, id asc),
// including under an accept predicate.
func TestExhaustiveBoundedHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e := NewExhaustive()
	vecs := make([]Vector, 400)
	for i := range vecs {
		vecs[i] = randVec(rng, 16)
		if err := e.Add(i, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	accepts := []Accept{nil, func(id int32) bool { return id%2 == 0 }}
	for _, accept := range accepts {
		for _, k := range []int{1, 7, 15, 400, 1000} {
			q := randVec(rng, 16)
			got := e.SearchUnit(q, k, accept)
			// Reference: exact scores of every accepted vector, insertion-
			// sorted by the canonical order, truncated to k. Re-normalize a
			// copy the same way Add does so the float arithmetic matches the
			// stored arena bit-for-bit.
			var ref []Result
			for id, v := range vecs {
				if accept != nil && !accept(int32(id)) {
					continue
				}
				w := Normalize(append(Vector(nil), v...))
				ref = append(ref, Result{ID: id, Distance: 1 - Dot(q, w)})
			}
			sortResultsInPlace(ref)
			if k < len(ref) {
				ref = ref[:k]
			}
			if len(got) != len(ref) {
				t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("k=%d: rank %d = %+v, want %+v", k, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestHNSWSaveLoadRoundTrip verifies the arena snapshot carries the float32
// arena bit for bit and the reloaded graph answers queries identically.
func TestHNSWSaveLoadRoundTrip(t *testing.T) {
	h, _, rng := buildPair(t, 600, 24, 71, HNSWConfig{Seed: 15, EfConstruction: 80})
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadHNSW(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.vecs) != len(h.vecs) {
		t.Fatalf("arena holds %d floats after round trip, want %d", len(g.vecs), len(h.vecs))
	}
	for i := range h.vecs {
		if math.Float32bits(g.vecs[i]) != math.Float32bits(h.vecs[i]) {
			t.Fatalf("arena float %d = %v after round trip, want %v", i, g.vecs[i], h.vecs[i])
		}
	}
	for qi := 0; qi < 20; qi++ {
		q := randVec(rng, 24)
		a, b := h.SearchUnit(q, 15, nil), g.SearchUnit(q, 15, nil)
		if len(a) != len(b) {
			t.Fatalf("result count diverged: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	if g.Len() != h.Len() || len(g.byID) != len(h.byID) {
		t.Fatalf("load dropped nodes: %d/%d ids, %d/%d byID", g.Len(), h.Len(), len(g.byID), len(h.byID))
	}
}

// TestReadHNSWLegacySnapshot ensures a pre-arena snapshot is refused as
// unsupported (gob would otherwise decode it into an empty graph
// silently), which the index layer reports as an unsupported snapshot.
func TestReadHNSWLegacySnapshot(t *testing.T) {
	// The v1 on-disk shape, reconstructed locally.
	type hnswNodeSnapshot struct {
		ID    int
		Vec   Vector
		Level int
		Links [][]int32
	}
	type legacySnapshot struct {
		Cfg    HNSWConfig
		Nodes  []hnswNodeSnapshot
		Entry  int32
		MaxLvl int
		Dim    int
	}
	var buf bytes.Buffer
	legacy := legacySnapshot{
		Cfg:   HNSWConfig{M: 16},
		Nodes: []hnswNodeSnapshot{{ID: 7, Vec: Vector{1, 0}, Links: [][]int32{{}}}},
		Dim:   2,
	}
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHNSW(&buf); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("err = %v, want errors.ErrUnsupported", err)
	}
}

// TestReadHNSWCorruptArena ensures inconsistent arena lengths surface as a
// decode error, not a panic at query time.
func TestReadHNSWCorruptArena(t *testing.T) {
	h, _, _ := buildPair(t, 50, 8, 81, HNSWConfig{Seed: 19})
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap hnswSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Vecs = snap.Vecs[:len(snap.Vecs)-3] // truncate the float arena
	var corrupt bytes.Buffer
	if err := gob.NewEncoder(&corrupt).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHNSW(&corrupt); err == nil {
		t.Fatal("corrupt arena accepted")
	}
}

func TestAddIDOutOfRange(t *testing.T) {
	h := NewHNSW(HNSWConfig{Seed: 1})
	if err := h.Add(1<<40, Vector{1, 0}); !errors.Is(err, ErrIDOutOfRange) {
		t.Fatalf("hnsw err = %v, want ErrIDOutOfRange", err)
	}
	e := NewExhaustive()
	if err := e.Add(-1<<40, Vector{1, 0}); !errors.Is(err, ErrIDOutOfRange) {
		t.Fatalf("exhaustive err = %v, want ErrIDOutOfRange", err)
	}
}
