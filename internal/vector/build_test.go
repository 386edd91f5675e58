package vector

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// titleStyleVectors draws n seeded unit vectors of dim components. Every
// third one repeats its predecessor, the way every chunk of a page repeats
// the page's title vector, so construction meets exact distance ties.
func titleStyleVectors(n, dim int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]Vector, n)
	for i := range vs {
		if i%3 == 2 {
			vs[i] = vs[i-1]
			continue
		}
		vs[i] = randVec(rng, dim)
	}
	return vs
}

// buildHNSW inserts vs under ids 0..n-1 in order.
func buildHNSW(tb testing.TB, vs []Vector, cfg HNSWConfig) *HNSW {
	tb.Helper()
	return buildWithCache(tb, vs, cfg, pairCacheMax)
}

// buildWithCache is buildHNSW with the pair cache capped at max entries (a
// power of two; 0 builds without one).
func buildWithCache(tb testing.TB, vs []Vector, cfg HNSWConfig, max int) *HNSW {
	tb.Helper()
	h := NewHNSW(cfg)
	h.pcMax = max
	for i, v := range vs {
		if err := h.Add(i, v); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// graphDigest is the SHA-256 of everything h.Save writes, in a fixed binary
// layout. The gob bytes themselves are not hashed: they also carry gob's
// type numbers, which are assigned process-wide in first-use order and so
// depend on what else the test binary encoded before.
func graphDigest(tb testing.TB, h *HNSW) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var s hnswSnapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		tb.Fatal(err)
	}
	d := sha256.New()
	for _, v := range []any{
		int64(s.Version), int64(s.Cfg.M), int64(s.Cfg.EfConstruction), int64(s.Cfg.EfSearch),
		s.Cfg.Seed, int64(s.Dim), s.Entry, int64(s.MaxLvl),
		s.IDs, s.Levels, s.Vecs, s.Links0, s.Cnt0, s.UpOff, s.UpNbrs, s.UpCnt,
	} {
		if err := binary.Write(d, binary.LittleEndian, v); err != nil {
			tb.Fatal(err)
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestHNSWGraphPinned pins the construction algorithm to the byte: the
// digest of what Save writes for seeded graphs with tied distances must
// not move. A change to a distance's accumulation order, to the tie order
// of neighbour selection or to the traversal that feeds it moves some
// link, and so the digest. A change that means to alter the graph re-pins
// these digests and says why.
func TestHNSWGraphPinned(t *testing.T) {
	for _, c := range pinnedGraphs {
		t.Run(c.name, func(t *testing.T) {
			h := buildHNSW(t, titleStyleVectors(c.n, c.dim, int64(c.dim)), c.cfg)
			if got := graphDigest(t, h); got != c.wantSHA256 {
				t.Fatalf("graph digest = %s, want %s", got, c.wantSHA256)
			}
		})
	}
}

// pinnedGraphs are TestHNSWGraphPinned's seeded graphs and their digests.
var pinnedGraphs = []struct {
	name       string
	n, dim     int
	cfg        HNSWConfig
	wantSHA256 string
}{
	{"dim64-M8", 600, 64, HNSWConfig{M: 8, EfConstruction: 80, Seed: 29},
		"716dbf45fc559fc3369655088a264aed368a28cde1bc0e467ef80e21195e5a4f"},
	{"dim256", 300, 256, HNSWConfig{EfConstruction: 80, Seed: 31},
		"e989481ab4cd1f56ab4d5778488019c00b7b756f9ac2c209b677574cd6910531"},
}

// TestBuildCacheKeepsGraph: the pair cache only ever returns a distance
// bit-identical to the one it saves, so the pinned graphs come out the same
// with the smallest cache, one bucket of pcWays entries (pairs evict each
// other all the time), and with no cache at all.
func TestBuildCacheKeepsGraph(t *testing.T) {
	for _, c := range pinnedGraphs {
		for _, max := range []int{pcWays, 0} {
			t.Run(fmt.Sprintf("%s/cache=%d", c.name, max), func(t *testing.T) {
				h := buildWithCache(t, titleStyleVectors(c.n, c.dim, int64(c.dim)), c.cfg, max)
				if got := graphDigest(t, h); got != c.wantSHA256 {
					t.Fatalf("graph digest = %s, want %s", got, c.wantSHA256)
				}
				if got := cacheEntries(h); got != max {
					t.Fatalf("cache holds %d entries, want %d", got, max)
				}
			})
		}
	}
}

// buildDistanceBudget is the ceiling on the distances BenchmarkHNSWBuild's
// graph costs to construct: the 1 588 622 measured with the pair cache,
// plus 10 %. Without the cache construction computes 9 744 370.
const buildDistanceBudget = 1_747_484

// TestHNSWBuildDistanceBudget is the counted guard on construction work:
// building BenchmarkHNSWBuild's graph stays within buildDistanceBudget
// distance evaluations.
func TestHNSWBuildDistanceBudget(t *testing.T) {
	h := buildHNSW(t, titleStyleVectors(1000, 256, 37), HNSWConfig{EfConstruction: 80, Seed: 41})
	t.Logf("%d distances to build 1 000 × 256-d", h.build.cst.evals)
	if h.build.cst.evals > buildDistanceBudget {
		t.Errorf("%d distances to build 1 000 × 256-d, ceiling %d", h.build.cst.evals, buildDistanceBudget)
	}
}

// BenchmarkHNSWBuild times graph construction alone: 1 000 vectors of 256
// dimensions with title-style duplicates, default M and the index layer's
// EfConstruction of 80. dists/op counts the distances computed.
func BenchmarkHNSWBuild(b *testing.B) {
	vs := titleStyleVectors(1000, 256, 37)
	cfg := HNSWConfig{EfConstruction: 80, Seed: 41}
	b.ReportAllocs()
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		evals += buildHNSW(b, vs, cfg).build.cst.evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "dists/op")
}

// FuzzBuildCache builds a small random vector set — drawn with repeats and
// zero components, so distances tie — with the smallest pair cache and
// with none, and requires the two graphs to save the same bytes.
func FuzzBuildCache(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(8), uint8(4), uint8(16))
	f.Add(int64(2), uint8(64), uint8(3), uint8(2), uint8(4))
	f.Add(int64(3), uint8(9), uint8(1), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, dim, m, ef uint8) {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]Vector, 1+int(n)%80)
		for i := range vs {
			if i > 0 && rng.Intn(3) == 0 {
				vs[i] = vs[rng.Intn(i)]
				continue
			}
			vs[i] = make(Vector, 1+int(dim)%16)
			for j := range vs[i] {
				vs[i][j] = float32(rng.Intn(5) - 2)
			}
		}
		cfg := HNSWConfig{M: 2 + int(m)%6, EfConstruction: 1 + int(ef)%40, Seed: seed}
		var saved [2]bytes.Buffer
		for i, max := range []int{pcWays, 0} {
			if err := buildWithCache(t, vs, cfg, max).Save(&saved[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
			t.Fatalf("%d vectors of %d-d, %+v: the graph built with a cache differs from the one built without", len(vs), len(vs[0]), cfg)
		}
	})
}

// FuzzReadHNSW holds ReadHNSW to its contract: any bytes it accepts make a
// graph that answers SearchUnit without panicking. Seeds: a saved small
// graph, a truncation of it, the snapshots whose arena sizes wrap and the
// saved graph relabelled with degree M = 1.
func FuzzReadHNSW(f *testing.F) {
	var saved bytes.Buffer
	h := buildHNSW(f, titleStyleVectors(40, 4, 3), HNSWConfig{M: 3, EfConstruction: 16, Seed: 3})
	if err := h.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	for _, snap := range corruptHNSWSnapshots() {
		f.Add(encodeSnapshot(f, snap))
	}
	var degreeOne hnswSnapshot
	if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&degreeOne); err != nil {
		f.Fatal(err)
	}
	degreeOne.Cfg.M = 1
	f.Add(encodeSnapshot(f, degreeOne))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHNSW(bytes.NewReader(data))
		if err != nil {
			return
		}
		q := make(Vector, h.dim)
		if h.dim > 0 {
			q[0] = 1
		}
		for _, k := range []int{1, len(h.ids) + 1} {
			if got := h.SearchUnit(q, k, nil); len(got) > k {
				t.Fatalf("SearchUnit(k=%d) returned %d results", k, len(got))
			}
		}
	})
}

// TestSortByDistMatchesSortSlice: sortByDist must leave tied candidates in
// exactly the order sort.Slice left them in, since that order is part of
// every graph built. The slices are tie-heavy (distances drawn from a few
// values) and span the lengths where pdqsort switches strategy: insertion
// sort up to 12, median-of-three, Tukey's ninther from 50, and the
// pattern-breaking shuffles of long unbalanced runs.
func TestSortByDistMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{0, 1, 2, 5, 12, 13, 33, 49, 50, 51, 64, 100, 129, 257, 600} {
		for _, distinct := range []int{1, 2, 3, 7, 40} {
			for trial := 0; trial < 20; trial++ {
				cds := make([]candDist, n)
				for i := range cds {
					cds[i] = candDist{node: int32(i), dist: float32(rng.Intn(distinct)) / 8}
				}
				if trial%4 == 1 { // presorted runs with ties
					sort.Slice(cds, func(i, j int) bool { return cds[i].dist < cds[j].dist })
				}
				if trial%4 == 2 { // reversed runs with ties
					sort.Slice(cds, func(i, j int) bool { return cds[i].dist > cds[j].dist })
				}
				want := slices.Clone(cds)
				sort.Slice(want, func(i, j int) bool { return want[i].dist < want[j].dist })
				got := slices.Clone(cds)
				sortByDist(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d distinct=%d trial=%d: sortByDist left %v, sort.Slice %v", n, distinct, trial, got, want)
				}
			}
		}
	}
}

// cacheEntries is the pair cache's size in entries, 0 when none is held.
func cacheEntries(h *HNSW) int {
	if h.build == nil {
		return 0
	}
	return len(h.build.pc.slots)
}
