package vector

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"
)

// TestReadExhaustiveRefusesBadArena: a corrupt dimension or id list is an
// error, never an index whose Vec or search would slice out of range.
func TestReadExhaustiveRefusesBadArena(t *testing.T) {
	e := NewExhaustive()
	for i := 0; i < 4; i++ {
		if err := e.Add(i, Vector{1, float32(i), 2}); err != nil {
			t.Fatal(err)
		}
	}
	var good bytes.Buffer
	if err := e.Save(&good); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExhaustive(&good)
	if err != nil || !slices.Equal(got.Vec(2), e.Vec(2)) || len(got.ids) != 4 {
		t.Fatalf("round trip: %v", err)
	}
	for _, bad := range []exhaustiveSnapshot{
		{Version: 1, Dim: 1 << 62, IDs: []int32{0, 1, 2, 3}},
		{Version: 1, Dim: 3, IDs: []int32{0, 1}, Vecs: make([]float32, 5)},
		{Version: 1, Dim: 0, IDs: []int32{0}},
		{Version: 1, Dim: 2, Vecs: make([]float32, 2)},
		{Version: 1, Dim: 1, IDs: []int32{7, 7}, Vecs: make([]float32, 2)},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadExhaustive(&buf); err == nil {
			t.Errorf("ReadExhaustive accepted %+v", bad)
		}
	}
}

// corruptHNSWSnapshots are graph images whose counts multiply past the int
// range back onto the arenas they carry: 4 nodes of dimension 2^62 over an
// empty vector arena, 4 nodes of a 2^62-slot layer-0 block over an empty
// link arena, and 8 upper slots of 2^61 links over an empty upper arena.
// ReadHNSW used to accept all three, and the first search sliced out of
// range.
func corruptHNSWSnapshots() []hnswSnapshot {
	flat := func(m, dim int) hnswSnapshot {
		return hnswSnapshot{
			Version: hnswSnapshotVersion, Cfg: HNSWConfig{M: m}, Dim: dim,
			IDs: []int32{0, 1, 2, 3}, Levels: make([]int32, 4), Cnt0: make([]int32, 4),
			UpOff: []int32{-1, -1, -1, -1},
		}
	}
	wideVecs := flat(16, 1<<62)
	wideVecs.Links0 = make([]int32, 4*2*16)
	wideLinks0 := flat(1<<61, 1)
	wideLinks0.Vecs = make([]float32, 4)
	wideUpper := flat(1<<61, 1)
	wideUpper.Vecs = make([]float32, 4)
	wideUpper.MaxLvl = 8
	wideUpper.Levels[0] = 8
	wideUpper.UpOff[0] = 0
	wideUpper.UpCnt = make([]int32, 8)
	return []hnswSnapshot{wideVecs, wideLinks0, wideUpper}
}

func encodeSnapshot(tb testing.TB, snap hnswSnapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadHNSWRefusesWrappedArena: a snapshot whose dimension or degree
// wraps an arena size is an error, and so are the graph shapes the descent
// cannot walk: an entry below the top level and an upper link to a node
// without that layer.
func TestReadHNSWRefusesWrappedArena(t *testing.T) {
	h := buildHNSW(t, titleStyleVectors(60, 4, 5), HNSWConfig{M: 4, EfConstruction: 20, Seed: 5})
	var saved bytes.Buffer
	if err := h.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var good hnswSnapshot
	if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHNSW(bytes.NewReader(encodeSnapshot(t, good))); err != nil {
		t.Fatalf("saved graph refused: %v", err)
	}
	if good.MaxLvl < 1 {
		t.Fatalf("graph has no upper layer to corrupt")
	}

	lowEntry := good
	lowEntry.MaxLvl++

	// Point the entry's first upper link at a node that lives on layer 0.
	downLink := good
	downLink.UpNbrs = slices.Clone(good.UpNbrs)
	ground := int32(slices.Index(good.Levels, 0))
	slot := int(good.UpOff[good.Entry]) * good.Cfg.M
	if good.UpCnt[good.UpOff[good.Entry]] == 0 || ground < 0 {
		t.Fatalf("graph shape gives no link to corrupt")
	}
	downLink.UpNbrs[slot] = ground

	for _, bad := range append(corruptHNSWSnapshots(), lowEntry, downLink) {
		if _, err := ReadHNSW(bytes.NewReader(encodeSnapshot(t, bad))); err == nil {
			t.Errorf("ReadHNSW accepted %d nodes, M %d, dim %d, entry level %d of %d",
				len(bad.IDs), bad.Cfg.M, bad.Dim, bad.Levels[bad.Entry], bad.MaxLvl)
		}
	}
}
