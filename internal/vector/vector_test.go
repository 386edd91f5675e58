package vector

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return Normalize(v)
}

func TestDotAndNorm(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if Dot(a, b) != 0 {
		t.Fatal("orthogonal dot != 0")
	}
	if Norm(Vector{3, 4}) != 5 {
		t.Fatal("norm of (3,4) != 5")
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vector{3, 4})
	if math.Abs(float64(Norm(v))-1) > 1e-6 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize(Vector{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed")
	}
}

func TestCosine(t *testing.T) {
	if c := Cosine(Vector{1, 0}, Vector{1, 0}); math.Abs(float64(c)-1) > 1e-6 {
		t.Fatalf("cos(same) = %v", c)
	}
	if c := Cosine(Vector{1, 0}, Vector{-1, 0}); math.Abs(float64(c)+1) > 1e-6 {
		t.Fatalf("cos(opposite) = %v", c)
	}
	if c := Cosine(Vector{0, 0}, Vector{1, 0}); c != 0 {
		t.Fatalf("cos(zero) = %v", c)
	}
}

func TestExhaustiveExactOrder(t *testing.T) {
	e := NewExhaustive()
	vs := []Vector{{1, 0}, {0.9, 0.1}, {0, 1}, {-1, 0}}
	for i, v := range vs {
		if err := e.Add(i, Normalize(v)); err != nil {
			t.Fatal(err)
		}
	}
	res := search(e, Vector{1, 0}, 4)
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	wantOrder := []int{0, 1, 2, 3}
	for i, w := range wantOrder {
		if res[i].ID != w {
			t.Fatalf("order = %v", res)
		}
	}
}

func TestExhaustiveDuplicateID(t *testing.T) {
	e := NewExhaustive()
	if err := e.Add(1, Vector{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(1, Vector{1}); err != ErrDuplicateID {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestExhaustiveDimensionMismatch(t *testing.T) {
	e := NewExhaustive()
	if err := e.Add(1, Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(2, Vector{1}); err != ErrDimensionMismatch {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

// TestEmptyVectorRefused: neither index takes a 0-length vector, first or
// later. As the first it left the dimension unset, and the HNSW then
// panicked striding the next vector past the empty slot.
func TestEmptyVectorRefused(t *testing.T) {
	for _, ix := range []Index{NewExhaustive(), NewHNSW(HNSWConfig{Seed: 1})} {
		if err := ix.Add(0, Vector{}); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("%T: empty first vector: err = %v, want ErrDimensionMismatch", ix, err)
		}
		if err := ix.Add(1, Vector{1, 0}); err != nil {
			t.Fatalf("%T: %v", ix, err)
		}
		if err := ix.Add(2, nil); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("%T: empty later vector: err = %v, want ErrDimensionMismatch", ix, err)
		}
		if got := ix.SearchUnit(Vector{1, 0}, 3, nil); len(got) != 1 || got[0].ID != 1 {
			t.Fatalf("%T: search = %+v, want only id 1", ix, got)
		}
	}
}

func TestExhaustiveKLargerThanIndex(t *testing.T) {
	e := NewExhaustive()
	e.Add(1, Vector{1, 0})
	if got := search(e, Vector{1, 0}, 10); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}
	if got := search(e, Vector{1, 0}, 0); got != nil {
		t.Fatalf("k=0 should return nil")
	}
}

func TestHNSWEmpty(t *testing.T) {
	h := NewHNSW(HNSWConfig{Seed: 1})
	if got := search(h, Vector{1, 0}, 5); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
}

func TestHNSWSingle(t *testing.T) {
	h := NewHNSW(HNSWConfig{Seed: 1})
	h.Add(42, Normalize(Vector{1, 2, 3}))
	res := search(h, Normalize(Vector{1, 2, 3}), 3)
	if len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("res = %v", res)
	}
	if res[0].Distance > 1e-6 {
		t.Fatalf("self distance = %v", res[0].Distance)
	}
}

func TestHNSWDuplicateID(t *testing.T) {
	h := NewHNSW(HNSWConfig{Seed: 1})
	h.Add(1, Vector{1, 0})
	if err := h.Add(1, Vector{0, 1}); err != ErrDuplicateID {
		t.Fatalf("err = %v", err)
	}
}

func TestHNSWDimensionMismatch(t *testing.T) {
	h := NewHNSW(HNSWConfig{Seed: 1})
	h.Add(1, Vector{1, 0})
	if err := h.Add(2, Vector{1, 0, 0}); err != ErrDimensionMismatch {
		t.Fatalf("err = %v", err)
	}
}

// recallAtK measures HNSW recall against exhaustive ground truth.
func recallAtK(t *testing.T, n, dim, k, queries int, cfg HNSWConfig) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
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
	hits, total := 0, 0
	for q := 0; q < queries; q++ {
		qv := randVec(rng, dim)
		truth := search(e, qv, k)
		approx := search(h, qv, k)
		truthSet := make(map[int]bool, k)
		for _, r := range truth {
			truthSet[r.ID] = true
		}
		for _, r := range approx {
			if truthSet[r.ID] {
				hits++
			}
		}
		total += len(truth)
	}
	return float64(hits) / float64(total)
}

func TestHNSWRecallMatchesExhaustive(t *testing.T) {
	// The paper observes HNSW ≈ exhaustive k-NN; require recall ≥ 0.9 on a
	// random workload.
	rec := recallAtK(t, 2000, 32, 10, 50, HNSWConfig{M: 16, EfConstruction: 200, EfSearch: 128, Seed: 3})
	if rec < 0.9 {
		t.Fatalf("HNSW recall@10 = %.3f, want >= 0.9", rec)
	}
}

func TestHNSWResultsSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHNSW(HNSWConfig{Seed: 5})
	for i := 0; i < 500; i++ {
		h.Add(i, randVec(rng, 16))
	}
	res := search(h, randVec(rng, 16), 20)
	seen := make(map[int]bool)
	for i, r := range res {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d in results", r.ID)
		}
		seen[r.ID] = true
		if i > 0 && res[i-1].Distance > r.Distance+1e-6 {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestHNSWDeterministic(t *testing.T) {
	build := func() []Result {
		rng := rand.New(rand.NewSource(13))
		h := NewHNSW(HNSWConfig{Seed: 99})
		for i := 0; i < 300; i++ {
			h.Add(i, randVec(rng, 8))
		}
		return search(h, randVec(rng, 8), 10)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic results: %v vs %v", a, b)
		}
	}
}

func TestHNSWGraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := NewHNSW(HNSWConfig{M: 8, Seed: 21})
	for i := 0; i < 1000; i++ {
		h.Add(i, randVec(rng, 16))
	}
	if h.maxLvl < 1 {
		t.Errorf("max level = %d, expected hierarchy", h.maxLvl)
	}
	total := 0
	for _, c := range h.cnt0 {
		total += int(c)
	}
	if d := float64(total) / float64(len(h.ids)); d == 0 || d > 16.5 {
		t.Errorf("layer-0 avg degree = %.1f, want in (0, 2*M]", d)
	}
}

// Property: exhaustive search returns results sorted by distance for random
// data.
func TestExhaustiveSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r2 := rand.New(rand.NewSource(seed))
		e := NewExhaustive()
		n := 5 + r2.Intn(50)
		for i := 0; i < n; i++ {
			e.Add(i, randVec(rng, 8))
		}
		res := search(e, randVec(rng, 8), n)
		for i := 1; i < len(res); i++ {
			if res[i-1].Distance > res[i].Distance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	h := NewHNSW(HNSWConfig{Seed: 7})
	for i := 0; i < 10000; i++ {
		h.Add(i, randVec(rng, 64))
	}
	q := Normalize(randVec(rng, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SearchUnit(q, 15, nil)
	}
}

func BenchmarkExhaustiveSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	e := NewExhaustive()
	for i := 0; i < 10000; i++ {
		e.Add(i, randVec(rng, 64))
	}
	q := Normalize(randVec(rng, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchUnit(q, 15, nil)
	}
}

// search is SearchUnit over a normalized copy of q.
func search(ix Index, q Vector, k int) []Result {
	return ix.SearchUnit(Normalize(append(Vector(nil), q...)), k, nil)
}
