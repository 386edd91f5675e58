package vector

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestTitleVectorsShareASlot: a node whose vector repeats the previous
// node's reads the previous node's slot, so the arena holds one slot per
// run of repeats. A saved and reloaded graph shares the same slots.
func TestTitleVectorsShareASlot(t *testing.T) {
	vs := titleStyleVectors(90, 16, 5)
	h := buildHNSW(t, vs, HNSWConfig{M: 4, EfConstruction: 20, Seed: 5})
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	g, err := ReadHNSW(&saved)
	if err != nil {
		t.Fatal(err)
	}
	for name, graph := range map[string]*HNSW{"built": h, "loaded": g} {
		if want := 60 * 16; len(graph.vecs) != want {
			t.Fatalf("%s: arena holds %d floats for 60 distinct vectors of 16, want %d", name, len(graph.vecs), want)
		}
		for id, v := range vs {
			got := graph.Vec(id)
			if !slices.Equal(got, unitOf(v)) {
				t.Fatalf("%s: Vec(%d) = %v, want the vector normalized once", name, id, got)
			}
			if id%3 == 2 && &got[0] != &graph.Vec(id - 1)[0] {
				t.Fatalf("%s: node %d repeats node %d but reads another slot", name, id, id-1)
			}
		}
	}
}

// unitOf is what an arena stores for v: v normalized once, in a copy.
func unitOf(v Vector) Vector {
	w := slices.Clone(v)
	normalizeF(w)
	return w
}

// TestReleaseKeepsPinnedGraph: a graph that releases its build state
// between inserts draws the same levels and makes the same links as one
// that never did, so the pinned graphs come out byte for byte the same.
// Each released graph holds no build state until its next Add.
func TestReleaseKeepsPinnedGraph(t *testing.T) {
	for _, c := range pinnedGraphs {
		for _, every := range []int{1, c.n / 2} {
			t.Run(fmt.Sprintf("%s/every=%d", c.name, every), func(t *testing.T) {
				h := NewHNSW(c.cfg)
				for i, v := range titleStyleVectors(c.n, c.dim, int64(c.dim)) {
					if err := h.Add(i, v); err != nil {
						t.Fatal(err)
					}
					if (i+1)%every == 0 {
						h.ReleaseBuildState()
						if h.HoldsBuildState() {
							t.Fatalf("after %d inserts: a released graph holds build state", i+1)
						}
					}
				}
				if got := graphDigest(t, h); got != c.wantSHA256 {
					t.Fatalf("graph digest = %s, want %s", got, c.wantSHA256)
				}
			})
		}
	}
}

// TestHNSWRefusesDegreeOne: M = 1 makes the level normalizer 1/ln(M)
// infinite. NewHNSW panics on it and ReadHNSW refuses any snapshot degree
// below 2, both naming the degree; M <= 0 still selects the default 16.
func TestHNSWRefusesDegreeOne(t *testing.T) {
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "M = 1") {
				t.Fatalf("NewHNSW(M: 1) panicked with %q, want a message naming the degree", msg)
			}
		}()
		NewHNSW(HNSWConfig{M: 1})
	}()
	for _, m := range []int{0, -3} {
		if got := NewHNSW(HNSWConfig{M: m}).cfg.M; got != 16 {
			t.Fatalf("NewHNSW(M: %d) has degree %d, want the default 16", m, got)
		}
	}
	h := buildHNSW(t, titleStyleVectors(20, 4, 9), HNSWConfig{M: 2, EfConstruction: 8, Seed: 9})
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var snap hnswSnapshot
	if err := gob.NewDecoder(&saved).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 0, -1} {
		snap.Cfg.M = m
		_, err := ReadHNSW(bytes.NewReader(encodeSnapshot(t, snap)))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("M = %d", m)) {
			t.Fatalf("snapshot of degree %d: err = %v, want a refusal naming the degree", m, err)
		}
	}
}

// FuzzSharedSlots builds a random vector set — consecutive repeats, scaled
// repeats, repeats of older vectors, exact ties and zero components of both
// signs — twice: sharing slots, and with every node in its own slot. The
// sharing graph may also release its build state midway. The two must save
// the same bytes and answer every search alike, and so must the sharing
// graph reloaded, which must read as many slots as it was built with.
func FuzzSharedSlots(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(8), uint8(4), uint8(16), uint8(13), false)
	f.Add(int64(2), uint8(64), uint8(3), uint8(2), uint8(4), uint8(0), true)
	f.Add(int64(3), uint8(9), uint8(1), uint8(3), uint8(1), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed int64, n, dim, m, ef, release uint8, unit bool) {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]Vector, 1+int(n)%80)
		for i := range vs {
			switch r := rng.Intn(8); {
			case i > 0 && r < 3:
				vs[i] = vs[i-1]
			case i > 0 && r == 3:
				vs[i] = slices.Clone(vs[i-1])
				for j := range vs[i] {
					vs[i][j] *= 2
				}
			case i > 0 && r == 4:
				vs[i] = vs[rng.Intn(i)]
			default:
				vs[i] = make(Vector, 1+int(dim)%16)
				for j := range vs[i] {
					vs[i][j] = float32(rng.Intn(5) - 2)
					if vs[i][j] == 0 && rng.Intn(2) == 0 {
						vs[i][j] = float32(math.Copysign(0, -1))
					}
				}
			}
		}
		cfg := HNSWConfig{M: 2 + int(m)%6, EfConstruction: 1 + int(ef)%40, Seed: seed}
		shared, plain := NewHNSW(cfg), NewHNSW(cfg)
		plain.noShare = true
		for i, v := range vs {
			for _, h := range []*HNSW{shared, plain} {
				var err error
				if unit {
					err = h.AddUnit(i, unitOf(v))
				} else {
					err = h.Add(i, v)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if i == int(release)%len(vs) {
				shared.ReleaseBuildState()
			}
		}
		var saved [2]bytes.Buffer
		for i, h := range []*HNSW{shared, plain} {
			if err := h.Save(&saved[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
			t.Fatalf("%d vectors of %d-d, %+v: the graph sharing slots saves other bytes", len(vs), len(vs[0]), cfg)
		}
		loaded, err := ReadHNSW(bytes.NewReader(saved[0].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded.vecs) != len(shared.vecs) {
			t.Fatalf("reloaded arena holds %d floats, built %d", len(loaded.vecs), len(shared.vecs))
		}
		queries := append(slices.Clone(vs), make(Vector, len(vs[0])))
		for _, q := range queries {
			q = unitOf(q)
			for _, k := range []int{1, 5, len(vs)} {
				want := fmt.Sprint(plain.SearchUnit(q, k, nil))
				for name, h := range map[string]*HNSW{"shared": shared, "reloaded": loaded} {
					if got := fmt.Sprint(h.SearchUnit(q, k, nil)); got != want {
						t.Fatalf("k=%d: %s graph answers %s, unshared %s", k, name, got, want)
					}
				}
			}
		}
	})
}
