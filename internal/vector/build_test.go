package vector

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math/rand"
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
	h := NewHNSW(cfg)
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
		s.Cfg.Seed, s.Cfg.DisableQuantization, int64(s.Dim), s.Entry, int64(s.MaxLvl), s.QScale, s.MaxAbs,
		s.IDs, s.Levels, s.Vecs, s.QVecs, s.Links0, s.Cnt0, s.UpOff, s.UpNbrs, s.UpCnt,
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
	cases := []struct {
		name       string
		n, dim     int
		cfg        HNSWConfig
		wantSHA256 string
	}{
		{"dim64-M8", 600, 64, HNSWConfig{M: 8, EfConstruction: 80, Seed: 29},
			"fc959fe07d1e981e7c590698a27bdc2116e5b79f6b92c5116e3dde5a24446ae7"},
		{"dim256", 300, 256, HNSWConfig{EfConstruction: 80, Seed: 31},
			"4ee3c9a97f33966e11a7c3430ed5352f36d548916f43dbebea0088da8e31c305"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := buildHNSW(t, titleStyleVectors(c.n, c.dim, int64(c.dim)), c.cfg)
			if got := graphDigest(t, h); got != c.wantSHA256 {
				t.Fatalf("graph digest = %s, want %s", got, c.wantSHA256)
			}
		})
	}
}

// BenchmarkHNSWBuild times graph construction alone: 1 000 vectors of 256
// dimensions with title-style duplicates, default M and the index layer's
// EfConstruction of 80.
func BenchmarkHNSWBuild(b *testing.B) {
	vs := titleStyleVectors(1000, 256, 37)
	cfg := HNSWConfig{EfConstruction: 80, Seed: 41}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildHNSW(b, vs, cfg)
	}
}
