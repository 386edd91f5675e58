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
	if err != nil || !slices.Equal(got.Vec(2), e.Vec(2)) || got.Len() != 4 {
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
