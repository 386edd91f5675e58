package vector

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Persistence of the flat HNSW: the arenas serialize as-is (bulk slice
// copies, no per-node structures), so Save/ReadHNSW cost is dominated by
// raw byte I/O rather than graph reconstruction.

// hnswSnapshotVersion identifies the arena snapshot layout. Version 2 is
// the first flat-arena format; any other version (the per-node format was
// an implicit 1) is refused with an error wrapping errors.ErrUnsupported,
// never decoded into an empty graph.
const hnswSnapshotVersion = 2

// hnswSnapshot is the gob-serializable image of the flat graph.
type hnswSnapshot struct {
	Version int
	Cfg     HNSWConfig
	Dim     int
	Entry   int32
	MaxLvl  int
	IDs     []int32
	Levels  []int32
	Vecs    []float32
	Links0  []int32
	Cnt0    []int32
	UpOff   []int32
	UpNbrs  []int32
	UpCnt   []int32
}

// Save serializes the graph, including its adjacency structure, so that
// loading skips reconstruction. The snapshot holds one vector per node,
// whether or not the node shares its arena slot.
func (h *HNSW) Save(w io.Writer) error {
	snap := hnswSnapshot{
		Version: hnswSnapshotVersion,
		Cfg:     h.cfg,
		Dim:     h.dim,
		Entry:   h.entry,
		MaxLvl:  h.maxLvl,
		IDs:     h.ids,
		Levels:  h.levels,
		Vecs:    h.nodeVecs(),
		Links0:  h.links0,
		Cnt0:    h.cnt0,
		UpOff:   h.upOff,
		UpNbrs:  h.upNbrs,
		UpCnt:   h.upCnt,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("vector: encode hnsw: %w", err)
	}
	return nil
}

// nodeVecs is the arena with one vector per node, as a snapshot holds it:
// the arena itself when no node shares a slot, an expanded copy otherwise.
func (h *HNSW) nodeVecs() []float32 {
	if len(h.vecs) == len(h.ids)*h.dim {
		return h.vecs
	}
	out := make([]float32, 0, len(h.ids)*h.dim)
	for n := range h.ids {
		out = append(out, h.vec(int32(n))...)
	}
	return out
}

// shareSlots turns a snapshot's one-vector-per-node arena into slots the
// way Add fills them: a node whose vector equals the previous node's bit
// for bit shares its slot. The arena is compacted in place and, when any
// node shares, copied into an array of its exact length.
func (h *HNSW) shareSlots() {
	h.slots = make([]int32, len(h.ids))
	kept := 0
	for n := range h.ids {
		v := h.vecs[n*h.dim : (n+1)*h.dim]
		if kept > 0 && !h.noShare && sameBits(h.vecs[(kept-1)*h.dim:kept*h.dim], v) {
			h.slots[n] = int32(kept - 1)
			continue
		}
		copy(h.vecs[kept*h.dim:], v)
		h.slots[n] = int32(kept)
		kept++
	}
	h.vecs = clip(h.vecs[:kept*h.dim])
}

// ReadHNSW deserializes a graph written by Save, validating the arena
// invariants so corrupted bytes surface as errors rather than panics on
// the first search. A snapshot the previous release wrote also carries an
// int8 copy of the arena and a traversal switch in its config; gob skips
// fields the target struct lacks, so it loads as the same graph.
func ReadHNSW(r io.Reader) (*HNSW, error) {
	var snap hnswSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("vector: decode hnsw: %w", err)
	}
	if snap.Version != hnswSnapshotVersion {
		return nil, fmt.Errorf("vector: hnsw snapshot version %d (want %d): %w", snap.Version, hnswSnapshotVersion, errors.ErrUnsupported)
	}
	// Save writes the configuration with its defaults applied, so its M is
	// never below 2.
	if snap.Cfg.M < 2 {
		return nil, fmt.Errorf("vector: hnsw snapshot: degree M = %d, want at least 2", snap.Cfg.M)
	}
	h := NewHNSW(snap.Cfg)
	h.dim = snap.Dim
	h.entry = snap.Entry
	h.maxLvl = snap.MaxLvl
	h.ids = snap.IDs
	h.levels = snap.Levels
	h.vecs = snap.Vecs
	h.links0 = snap.Links0
	h.cnt0 = snap.Cnt0
	h.upOff = snap.UpOff
	h.upNbrs = snap.UpNbrs
	h.upCnt = snap.UpCnt
	if err := h.validate(); err != nil {
		return nil, fmt.Errorf("vector: hnsw snapshot: %w", err)
	}
	h.shareSlots()
	for i, id := range h.ids {
		if _, dup := h.byID[int(id)]; dup {
			return nil, fmt.Errorf("vector: hnsw snapshot: id %d repeated: %w", id, ErrDuplicateID)
		}
		h.byID[int(id)] = int32(i)
	}
	return h, nil
}

// maxSnapshotDim and maxSnapshotM bound a snapshot's dimension and degree
// before validate sizes any arena by them: far above any embedding width
// or HNSW degree in use, far below a product that could wrap.
const (
	maxSnapshotDim = 1 << 20
	maxSnapshotM   = 1 << 12
)

// holds reports whether an arena of size entries is exactly n blocks of
// stride. It divides rather than multiplies, so corrupt counts cannot wrap
// n*stride round to size.
func holds(size, n, stride int) bool {
	if n == 0 {
		return size == 0
	}
	return size%n == 0 && size/n == stride
}

// validate checks the structural invariants of the loaded arenas: every
// one a search relies on, so a graph that passes answers SearchUnit (with
// a query of its dimension) without slicing out of range.
func (h *HNSW) validate() error {
	n := len(h.ids)
	if h.dim < 0 || h.dim > maxSnapshotDim || (n > 0 && h.dim == 0) {
		return fmt.Errorf("bad dimension %d for %d nodes", h.dim, n)
	}
	if h.cfg.M > maxSnapshotM {
		return fmt.Errorf("degree M %d above %d", h.cfg.M, maxSnapshotM)
	}
	if len(h.levels) != n || len(h.cnt0) != n || len(h.upOff) != n {
		return fmt.Errorf("arena lengths disagree: %d ids, %d levels, %d cnt0, %d upOff",
			n, len(h.levels), len(h.cnt0), len(h.upOff))
	}
	if !holds(len(h.vecs), n, h.dim) {
		return fmt.Errorf("vector arena sized %d for %d %d-d vectors", len(h.vecs), n, h.dim)
	}
	if !holds(len(h.links0), n, h.m0) {
		return fmt.Errorf("layer-0 arena sized %d for %d nodes of %d slots", len(h.links0), n, h.m0)
	}
	if n == 0 {
		if h.entry != -1 {
			return fmt.Errorf("entry %d in empty graph", h.entry)
		}
		return nil
	}
	if h.entry < 0 || int(h.entry) >= n {
		return fmt.Errorf("entry %d out of range [0,%d)", h.entry, n)
	}
	// The descent starts at the entry on the top layer.
	if int(h.levels[h.entry]) != h.maxLvl {
		return fmt.Errorf("entry %d on level %d, top level %d", h.entry, h.levels[h.entry], h.maxLvl)
	}
	upSlots := 0
	for i := 0; i < n; i++ {
		lvl := int(h.levels[i])
		if lvl < 0 || lvl > h.maxLvl {
			return fmt.Errorf("node %d level %d outside [0,%d]", i, lvl, h.maxLvl)
		}
		if c := h.cnt0[i]; c < 0 || int(c) > h.m0 {
			return fmt.Errorf("node %d layer-0 degree %d outside [0,%d]", i, c, h.m0)
		}
		if lvl == 0 {
			if h.upOff[i] != -1 {
				return fmt.Errorf("level-0 node %d has upper offset %d", i, h.upOff[i])
			}
		} else {
			if int(h.upOff[i]) != upSlots {
				return fmt.Errorf("node %d upper offset %d, want %d", i, h.upOff[i], upSlots)
			}
			upSlots += lvl
			if upSlots > len(h.upCnt) {
				return fmt.Errorf("node %d needs upper slots past the %d stored", i, len(h.upCnt))
			}
		}
	}
	if len(h.upCnt) != upSlots || !holds(len(h.upNbrs), upSlots, h.cfg.M) {
		return fmt.Errorf("upper arenas sized %d/%d for %d slots of %d",
			len(h.upCnt), len(h.upNbrs), upSlots, h.cfg.M)
	}
	for i, c := range h.upCnt {
		if c < 0 || int(c) > h.cfg.M {
			return fmt.Errorf("upper slot %d degree %d outside [0,%d]", i, c, h.cfg.M)
		}
	}
	for i, t := range h.links0 {
		if t < 0 || int(t) >= n {
			if i%h.m0 < int(h.cnt0[i/h.m0]) { // only live slots matter
				return fmt.Errorf("layer-0 link %d targets %d outside [0,%d)", i, t, n)
			}
		}
	}
	// A layer-l link must reach a node that has layer l: the descent reads
	// the target's own layer-l slot next.
	for i := int32(0); int(i) < n; i++ {
		for l := 1; l <= int(h.levels[i]); l++ {
			for _, t := range h.neighborsUp(i, l) {
				if t < 0 || int(t) >= n || int(h.levels[t]) < l {
					return fmt.Errorf("node %d layer-%d link targets %d, not a node of that layer", i, l, t)
				}
			}
		}
	}
	return nil
}

// exhaustiveSnapshotVersion identifies the exact index's snapshot layout.
const exhaustiveSnapshotVersion = 1

// exhaustiveSnapshot is the gob-serializable image of an Exhaustive: its
// ids in insertion order and its unit-length arena.
type exhaustiveSnapshot struct {
	Version int
	Dim     int
	IDs     []int32
	Vecs    []float32
}

// Save serializes the index's arena, so loading copies no vector through
// Add (whose normalization would move the stored unit vectors' bits).
func (e *Exhaustive) Save(w io.Writer) error {
	snap := exhaustiveSnapshot{Version: exhaustiveSnapshotVersion, Dim: e.dim, IDs: e.ids, Vecs: e.vecs}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("vector: encode exhaustive: %w", err)
	}
	return nil
}

// ReadExhaustive deserializes an index written by Exhaustive.Save, refusing
// an arena that disagrees with its ids or dimension and a repeated id.
func ReadExhaustive(r io.Reader) (*Exhaustive, error) {
	var snap exhaustiveSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("vector: decode exhaustive: %w", err)
	}
	if snap.Version != exhaustiveSnapshotVersion {
		return nil, fmt.Errorf("vector: exhaustive snapshot version %d (want %d): %w", snap.Version, exhaustiveSnapshotVersion, errors.ErrUnsupported)
	}
	n := len(snap.IDs)
	// Divided, not multiplied: a corrupt dimension must not wrap n*dim
	// round to the arena's length.
	if n == 0 && len(snap.Vecs) != 0 || n > 0 && (snap.Dim <= 0 || len(snap.Vecs)%n != 0 || len(snap.Vecs)/n != snap.Dim) {
		return nil, fmt.Errorf("vector: exhaustive snapshot: arena sized %d for %d %d-d vectors", len(snap.Vecs), n, snap.Dim)
	}
	e := &Exhaustive{ids: snap.IDs, vecs: snap.Vecs, dim: snap.Dim, pos: make(map[int32]int32, n)}
	for i, id := range snap.IDs {
		if _, dup := e.pos[id]; dup {
			return nil, fmt.Errorf("vector: exhaustive snapshot: id %d repeated: %w", id, ErrDuplicateID)
		}
		e.pos[id] = int32(i)
	}
	return e, nil
}
