// Package vector implements approximate and exact nearest-neighbor search
// over dense embeddings: a from-scratch HNSW graph (Malkov & Yashunin, 2018)
// — the ANN algorithm Azure AI Search runs and the paper uses with K=15 —
// plus an exhaustive k-NN scanner used as the exactness baseline. The paper
// reports HNSW and exhaustive search yield similar retrieval performance;
// the tests here verify that recall parity on synthetic workloads.
//
// Both indexes store vectors in one contiguous float32 arena, which their
// searches read directly, and both accept an optional per-id Accept
// predicate so callers can push tombstone/filter checks into the scan
// instead of over-fetching and re-filtering.
package vector

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense embedding.
type Vector []float32

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// dotF is Dot over raw float32 slices (arena views).
func dotF(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// dotF4 returns dotF(q, a), dotF(q, b), dotF(q, c) and dotF(q, d) bit for
// bit: each accumulator sums q[i]*x[i] in index order exactly as dotF does,
// but the four dependency chains are independent, so they overlap in the
// pipeline instead of waiting on one another. Every operand must hold at
// least len(q) components; the reslices below panic otherwise (arena views
// are capped at their own slot, see HNSW.vec) and lift the bounds checks
// out of the loop.
func dotF4(q, a, b, c, d []float32) (sa, sb, sc, sd float32) {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	for i := range q {
		sa += q[i] * a[i]
		sb += q[i] * b[i]
		sc += q[i] * c[i]
		sd += q[i] * d[i]
	}
	return sa, sb, sc, sd
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float32 {
	return float32(math.Sqrt(float64(Dot(v, v))))
}

// Normalize scales v to unit length in place and returns it. The zero
// vector is returned unchanged.
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Cosine returns the cosine similarity of a and b (0 for zero vectors).
func Cosine(a, b Vector) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// CosineDistance returns 1 - Cosine(a, b), the metric both the HNSW index
// and the exhaustive scanner minimize (the ada-002 guidance is cosine
// similarity over unit vectors).
func CosineDistance(a, b Vector) float32 { return 1 - Cosine(a, b) }

// Result is one nearest-neighbor hit.
type Result struct {
	// ID is the caller-assigned identifier of the vector.
	ID int
	// Distance is the cosine distance from the query (smaller is closer).
	Distance float32
}

// Accept filters candidates during search: a vector whose id it rejects is
// still traversed for graph connectivity but never enters the result set.
// A nil Accept admits everything.
type Accept func(id int32) bool

// Index is the interface shared by the exhaustive scanner and HNSW.
type Index interface {
	// Add inserts a vector under id. Adding an existing id is an error,
	// and so is an empty vector or one of another length than the first
	// (ErrDimensionMismatch). v is copied into the index's arena and
	// normalized there; the caller's slice is never modified.
	Add(id int, v Vector) error
	// AddUnit is Add for a vector already in the unit-length form an arena
	// holds — a view read back through Vec, from this index or another:
	// its bits are copied verbatim. Normalizing them a second time would
	// move the last bit of some components, and with them the distances a
	// graph is built from.
	AddUnit(id int, v Vector) error
	// Vec returns the stored unit vector of id, nil when id is not held: a
	// read-only view of the arena, its capacity capped at its own length,
	// valid for as long as the caller keeps it (the arena never changes a
	// stored vector, and a view keeps the array it points into alive).
	Vec(id int) Vector
	// Search returns the k nearest neighbors of q, closest first. q is
	// copied and normalized internally.
	Search(q Vector, k int) []Result
	// SearchUnit is Search for callers that already hold a unit-length
	// query: q must be normalized, is never modified, and an optional
	// accept predicate restricts which ids may appear in the results.
	// Ties are broken by ascending id, so the result order is a pure
	// function of the stored vector set.
	SearchUnit(q Vector, k int, accept Accept) []Result
	// Len reports the number of indexed vectors.
	Len() int
}

// ErrDuplicateID is returned when Add is called twice with the same id.
var ErrDuplicateID = errors.New("vector: duplicate id")

// ErrDimensionMismatch is returned when a vector's dimensionality differs
// from the first inserted vector's.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// errEmptyVector refuses a 0-length vector: as a field's first it would
// leave the dimension unset, and the next vector's arena stride would then
// disagree with the empty slot already stored.
var errEmptyVector = fmt.Errorf("vector: empty vector: %w", ErrDimensionMismatch)

// ErrIDOutOfRange is returned when Add is called with an id outside the
// int32 range the arena-backed indexes (and the Accept predicate) use.
var ErrIDOutOfRange = errors.New("vector: id outside int32 range")

// Exhaustive is a brute-force exact k-NN index. Vectors live in one
// contiguous arena and search keeps a bounded top-k heap, so a query costs
// one allocation (the result slice) regardless of corpus size.
type Exhaustive struct {
	ids  []int32
	vecs []float32 // len(ids) * dim, unit-normalized
	pos  map[int32]int32
	dim  int
}

// NewExhaustive returns an empty exact index.
func NewExhaustive() *Exhaustive {
	return &Exhaustive{pos: make(map[int32]int32)}
}

// Add implements Index. The vector is copied into the arena and normalized
// so that every distance evaluation during search is a single dot product.
func (e *Exhaustive) Add(id int, v Vector) error { return e.add(id, v, false) }

// AddUnit implements Index: the vector is copied into the arena verbatim.
func (e *Exhaustive) AddUnit(id int, v Vector) error { return e.add(id, v, true) }

func (e *Exhaustive) add(id int, v Vector, unit bool) error {
	if int64(id) != int64(int32(id)) {
		return ErrIDOutOfRange
	}
	if _, dup := e.pos[int32(id)]; dup {
		return ErrDuplicateID
	}
	if len(v) == 0 {
		return errEmptyVector
	}
	if e.dim == 0 {
		e.dim = len(v)
	} else if len(v) != e.dim {
		return ErrDimensionMismatch
	}
	e.pos[int32(id)] = int32(len(e.ids))
	e.ids = append(e.ids, int32(id))
	start := len(e.vecs)
	e.vecs = appendArena(e.vecs, v)
	if !unit {
		normalizeF(e.vecs[start:])
	}
	return nil
}

// Vec implements Index.
func (e *Exhaustive) Vec(id int) Vector {
	if int64(id) != int64(int32(id)) {
		return nil
	}
	n, ok := e.pos[int32(id)]
	if !ok {
		return nil
	}
	s := int(n) * e.dim
	return e.vecs[s : s+e.dim : s+e.dim]
}

// ReleaseBuildState gives the arena's spare capacity back (see
// HNSW.ReleaseBuildState).
func (e *Exhaustive) ReleaseBuildState() {
	e.ids, e.vecs = clip(e.ids), clip(e.vecs)
}

// appendArena appends v to an arena. A full arena doubles, so it moves
// O(log n) times while it grows; a view taken before a move keeps the old
// array alive (see Index.Vec). ReleaseBuildState gives the spare capacity
// back once no more vectors arrive.
func appendArena(arena, v []float32) []float32 {
	if len(arena)+len(v) > cap(arena) {
		grown := make([]float32, len(arena), 2*cap(arena)+len(v))
		copy(grown, arena)
		arena = grown
	}
	return append(arena, v...)
}

// clip returns s in an array of exactly its length: a copy when s has spare
// capacity, s itself otherwise.
func clip[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// normalizeF scales an arena view to unit length in place (zero stays zero).
func normalizeF(v []float32) {
	n := float32(math.Sqrt(float64(dotF(v, v))))
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// Search implements Index with a full scan.
func (e *Exhaustive) Search(q Vector, k int) []Result {
	if k <= 0 || len(e.ids) == 0 {
		return nil
	}
	q = Normalize(append(Vector(nil), q...))
	return e.SearchUnit(q, k, nil)
}

// SearchUnit implements Index: a full scan feeding a bounded top-k heap
// ordered by (distance, id), the same total order the previous full-sort
// implementation produced.
func (e *Exhaustive) SearchUnit(q Vector, k int, accept Accept) []Result {
	if k <= 0 || len(e.ids) == 0 {
		return nil
	}
	out := make([]Result, 0, min(k, len(e.ids)))
	for i, id := range e.ids {
		if accept != nil && !accept(id) {
			continue
		}
		r := Result{ID: int(id), Distance: 1 - dotF(q, e.vecs[i*e.dim:(i+1)*e.dim])}
		if len(out) < k {
			out = append(out, r)
			siftUpWorst(out, len(out)-1)
		} else if resultBefore(r, out[0]) {
			out[0] = r
			siftDownWorst(out, 0)
		}
	}
	// Heap-sort in place: repeatedly swap the worst survivor to the tail.
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		siftDownWorst(out[:n], 0)
	}
	return out
}

// resultBefore is the canonical result order: distance ascending, id
// ascending on ties.
func resultBefore(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}

// siftUpWorst/siftDownWorst maintain a max-heap under resultBefore (the
// worst kept result sits at the root, ready for eviction).
func siftUpWorst(h []Result, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !resultBefore(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownWorst(h []Result, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && resultBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && resultBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Len implements Index.
func (e *Exhaustive) Len() int { return len(e.ids) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
