package vector

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// HNSWConfig holds the construction parameters of an HNSW graph.
type HNSWConfig struct {
	// M is the maximum number of bidirectional links per node on layers
	// above 0; layer 0 allows 2*M. Default 16 (the Azure AI Search default).
	M int
	// EfConstruction is the size of the candidate list during insertion.
	// Default 200.
	EfConstruction int
	// EfSearch is the default size of the candidate list during search; it
	// is raised to k when k is larger. Default 64.
	EfSearch int
	// Seed drives the level generator so index construction is
	// deterministic.
	Seed int64
}

func (c HNSWConfig) withDefaults() HNSWConfig {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// HNSW is a Hierarchical Navigable Small World graph for approximate
// nearest-neighbor search under cosine distance.
//
// The graph is stored flat, hnswlib-style, with no per-node heap objects:
//
//   - vecs is one contiguous float32 arena of unit vectors, which
//     construction and search both walk: node n's occupies slot slots[n],
//     vecs[slots[n]*dim : (slots[n]+1)*dim]. A node whose vector equals the
//     previous node's bit for bit shares its slot — every chunk of a page
//     carries the page's title vector — so a page costs one title slot.
//   - Layer-0 adjacency is a fixed-stride arena: node n owns the 2M-slot
//     block links0[n*2M : (n+1)*2M], of which the first cnt0[n] are live.
//   - Upper-layer adjacency is allocated per node on insert: a node of
//     level L owns L consecutive slots starting at upOff[n] (one per layer
//     1..L), each slot being M int32 neighbor entries in upNbrs with its
//     live count in upCnt. Level-0 nodes store upOff[n] = -1.
//
// Writes (Add) are not safe concurrently with anything; searches are safe
// concurrently with each other. The index layer above serializes Add under
// its write lock.
type HNSW struct {
	cfg    HNSWConfig
	byID   map[int]int32 // external id -> node ordinal
	entry  int32         // entry point ordinal (-1 when empty)
	maxLvl int
	levelM float64 // 1/ln(M): the level-assignment normalizer from the paper
	dim    int
	m0     int // 2*M, the layer-0 block stride

	ids    []int32 // node ordinal -> external id
	levels []int32
	slots  []int32 // node ordinal -> arena slot
	vecs   []float32

	links0 []int32
	cnt0   []int32
	upOff  []int32
	upNbrs []int32
	upCnt  []int32

	// build is what only construction reads, nil until the first Add and
	// again after ReleaseBuildState. draws counts the level generator's
	// draws so far, so a build state made anew resumes its sequence.
	build *buildState
	draws int

	// pcMax caps the pair cache's entries, and 0 turns it off; noShare
	// gives every node its own arena slot. Both are test seams.
	pcMax   int
	noShare bool

	statePool sync.Pool
}

// buildState is what a graph keeps only while it grows: the level
// generator, the construction scratch (Add is externally serialized, so
// these are plain fields rather than pooled) and the pair cache.
type buildState struct {
	rng       *rand.Rand
	cst       searchState
	eps       []int32
	layerBuf  []int32
	nbrSel    []int32
	linkBuf   []int32
	shrinkSel []int32
	cds       []candDist
	disc      []int32

	// pc memoizes node-to-node distances (see pairDists). missAt, missNodes
	// and missDist are one pairDists call's misses; pending is diverse's
	// uncached neighbours.
	pc        pairCache
	missAt    []int32
	missNodes []int32
	missDist  []float32
	pending   []int32
}

// candDist pairs a candidate ordinal with its distance during neighbor
// selection.
type candDist struct {
	node int32
	dist float32
}

// NewHNSW creates an empty HNSW index with the given configuration. It
// panics on M = 1, whose level normalizer 1/ln(M) is infinite.
func NewHNSW(cfg HNSWConfig) *HNSW {
	cfg = cfg.withDefaults()
	if cfg.M < 2 {
		panic(fmt.Sprintf("vector: HNSW degree M = %d, want at least 2", cfg.M))
	}
	return &HNSW{
		cfg:    cfg,
		byID:   make(map[int]int32),
		entry:  -1,
		levelM: 1 / math.Log(float64(cfg.M)),
		m0:     2 * cfg.M,
		pcMax:  pairCacheMax,
	}
}

// builder returns the graph's build state, making it on the first Add and
// on the first Add after ReleaseBuildState. A new level generator is
// seeded afresh and skips the draws already made, so the levels it draws
// are those a graph that never released its state would draw.
func (h *HNSW) builder() *buildState {
	if h.build == nil {
		rng := rand.New(rand.NewSource(h.cfg.Seed))
		for i := 0; i < h.draws; i++ {
			rng.Float64()
		}
		h.build = &buildState{rng: rng}
	}
	return h.build
}

// Len implements Index.
func (h *HNSW) Len() int { return len(h.ids) }

// vec is node n's arena view. Its capacity ends with its slot, so reslicing
// it past dim (as dotF4 does to match a longer query) panics rather than
// reading the next slot's vector.
func (h *HNSW) vec(n int32) []float32 {
	s := int(h.slots[n]) * h.dim
	return h.vecs[s : s+h.dim : s+h.dim]
}

// storeVec copies v into a new arena slot, normalized unless unit, and
// returns the slot — or drops the copy and returns the last slot when the
// two hold the same bits, the last slot being the previous node's.
func (h *HNSW) storeVec(v Vector, unit bool) int32 {
	start := len(h.vecs)
	h.vecs = appendArena(h.vecs, v)
	if !unit {
		normalizeF(h.vecs[start:])
	}
	if start > 0 && !h.noShare && sameBits(h.vecs[start-h.dim:start], h.vecs[start:]) {
		h.vecs = h.vecs[:start]
		return int32(start/h.dim - 1)
	}
	return int32(start / h.dim)
}

// sameBits reports whether a and b, of equal length, hold the same bits.
// Float equality would not do: it equates 0 and -0, and no NaN equals
// itself.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// dists appends the cosine distance 1 - dot(q, vec(n)) of every node in
// nodes to dst, in order, four nodes per pass of dotF4 — each value
// bit-identical to 1 - dotF(q, vec(n)). A short last pass repeats its last
// node: the spare chains run beside the real ones for about the latency of
// a single dotF, and their results are dropped.
func (h *HNSW) dists(dst, q []float32, nodes []int32) []float32 {
	for i := 0; i < len(nodes); i += 4 {
		var quad [4]int32
		k := copy(quad[:], nodes[i:])
		for j := k; j < 4; j++ {
			quad[j] = quad[k-1]
		}
		a, b, c, d := dotF4(q, h.vec(quad[0]), h.vec(quad[1]), h.vec(quad[2]), h.vec(quad[3]))
		ds := [4]float32{1 - a, 1 - b, 1 - c, 1 - d}
		dst = append(dst, ds[:k]...)
	}
	return dst
}

// pairDists is dists(dst, h.vec(a), nodes) through the pair cache: every
// pair is looked up first, only the misses are computed (one dists batch)
// and they are remembered. A remembered distance is bit-identical to a
// recomputed one — a float product does not depend on operand order and
// dotF4 sums the products in index order whichever operand is the query,
// so dist(a, b) == dist(b, a) to the bit — and every decision built on it,
// hence the graph, is the same. Misses count in the build state's cst.evals.
func (h *HNSW) pairDists(dst []float32, a int32, nodes []int32) []float32 {
	b := h.build
	if len(b.pc.slots) == 0 {
		b.cst.evals += len(nodes)
		return h.dists(dst, h.vec(a), nodes)
	}
	base := len(dst)
	b.missAt, b.missNodes = b.missAt[:0], b.missNodes[:0]
	for i, n := range nodes {
		if d, ok := b.pc.get(pairKey(a, n)); ok {
			dst = append(dst, d)
			continue
		}
		dst = append(dst, 0)
		b.missAt = append(b.missAt, int32(base+i))
		b.missNodes = append(b.missNodes, n)
	}
	b.missDist = h.dists(b.missDist[:0], h.vec(a), b.missNodes)
	for j, d := range b.missDist {
		dst[b.missAt[j]] = d
		b.pc.put(pairKey(a, b.missNodes[j]), d)
	}
	b.cst.evals += len(b.missNodes)
	return dst
}

// pairCacheMax caps a graph's pair cache at 2^16 entries (1 MiB): about 64
// per node of a full memtable (index.DefaultMemtableMaxDocs, 1 024).
const pairCacheMax = 1 << 16

// pcWays is the pair cache's associativity: a bucket of four 16-byte
// entries is one 64-byte cache line.
const pcWays = 4

// pairCache is a table of node-to-node distances, kept only while the
// graph is being built: most of construction's distances are repeats,
// chiefly addLink re-selecting a full node's links among the same ≤ 2M+1
// neighbours every time one more arrives. A pair hashes to one bucket of
// pcWays entries, most recently used first; a new pair evicts the bucket's
// least recently used one.
type pairCache struct {
	slots []pairEntry
	shift uint // 64 - log2(number of buckets)
}

// pairEntry is one slot: the pair's key and its distance. Key 0 marks an
// empty slot (pairKey is never 0), so a new table needs no initialisation
// pass.
type pairEntry struct {
	key  uint64
	dist float32
}

// pairKey is the cache key of the unordered node pair {a, b}: the ordered
// ordinals packed into 64 bits, plus one.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return (uint64(a)<<32 | uint64(b)) + 1
}

// bucket is the bucket key maps to (Fibonacci hashing onto the table).
func (c *pairCache) bucket(key uint64) []pairEntry {
	b := int((key*0x9E3779B97F4A7C15)>>c.shift) * pcWays
	return c.slots[b : b+pcWays : b+pcWays]
}

// get returns the remembered distance of key's pair and moves it to the
// front of its bucket.
func (c *pairCache) get(key uint64) (float32, bool) {
	if len(c.slots) == 0 {
		return 0, false
	}
	b := c.bucket(key)
	for i := range b {
		if b[i].key == key {
			e := b[i]
			copy(b[1:i+1], b[:i])
			b[0] = e
			return e.dist, true
		}
	}
	return 0, false
}

// put remembers a pair not in the table at the front of its bucket.
func (c *pairCache) put(key uint64, d float32) {
	b := c.bucket(key)
	copy(b[1:], b[:pcWays-1])
	b[0] = pairEntry{key: key, dist: d}
}

// fit sizes the table for a graph of n nodes: the power of two that holds
// all n(n-1)/2 pairs, at least one bucket and at most max entries (a power
// of two, at least pcWays; 0 keeps the cache off), so a five-chunk memtable
// holds 16 entries, not 2^16. Growing re-inserts the remembered pairs.
func (c *pairCache) fit(n, max int) {
	want := pcWays
	for want < n*(n-1)/2 && want < max {
		want <<= 1
	}
	if max == 0 || want <= len(c.slots) {
		return
	}
	old := c.slots
	c.slots = make([]pairEntry, want)
	c.shift = uint(64 - bits.TrailingZeros(uint(want/pcWays)))
	for _, e := range old {
		if e.key != 0 {
			c.put(e.key, e.dist)
		}
	}
}

// ReleaseBuildState frees what the graph keeps only for further inserts:
// its build state (level generator, construction scratch, pair cache) and
// the spare capacity of every arena (each is copied into an array of its
// exact length; views taken through Vec before the call keep the old array
// alive for as long as they are held). The index layer calls it when a
// segment is sealed and will receive no more Adds; an Add after it makes a
// new build state and regrows the arenas, so the graph is unaffected.
func (h *HNSW) ReleaseBuildState() {
	h.build = nil
	h.ids, h.levels, h.slots, h.vecs = clip(h.ids), clip(h.levels), clip(h.slots), clip(h.vecs)
	h.links0, h.cnt0 = clip(h.links0), clip(h.cnt0)
	h.upOff, h.upNbrs, h.upCnt = clip(h.upOff), clip(h.upNbrs), clip(h.upCnt)
}

// BuildCacheEntries reports the pair cache's size in entries, 0 when none
// is held (diagnostics).
func (h *HNSW) BuildCacheEntries() int {
	if h.build == nil {
		return 0
	}
	return len(h.build.pc.slots)
}

// HoldsBuildState reports whether the graph holds a build state: from its
// first Add until ReleaseBuildState (diagnostics).
func (h *HNSW) HoldsBuildState() bool { return h.build != nil }

func (h *HNSW) neighbors0(n int32) []int32 {
	s := int(n) * h.m0
	return h.links0[s : s+int(h.cnt0[n])]
}

func (h *HNSW) neighborsUp(n int32, l int) []int32 {
	slot := int(h.upOff[n]) + l - 1
	s := slot * h.cfg.M
	return h.upNbrs[s : s+int(h.upCnt[slot])]
}

func (h *HNSW) layerNeighbors(n int32, l int) []int32 {
	if l == 0 {
		return h.neighbors0(n)
	}
	return h.neighborsUp(n, l)
}

// setLinks overwrites node n's neighbor list at layer l.
func (h *HNSW) setLinks(n int32, l int, nbrs []int32) {
	if l == 0 {
		copy(h.links0[int(n)*h.m0:], nbrs)
		h.cnt0[n] = int32(len(nbrs))
		return
	}
	slot := int(h.upOff[n]) + l - 1
	copy(h.upNbrs[slot*h.cfg.M:], nbrs)
	h.upCnt[slot] = int32(len(nbrs))
}

// addLink appends nb to node n's neighbors at layer l, re-selecting the
// best maxM links with the insertion heuristic when the block is full.
func (h *HNSW) addLink(n int32, l int, nb int32) {
	maxM := h.maxM(l)
	if l == 0 {
		if cnt := int(h.cnt0[n]); cnt < maxM {
			h.links0[int(n)*h.m0+cnt] = nb
			h.cnt0[n]++
			return
		}
	} else {
		slot := int(h.upOff[n]) + l - 1
		if cnt := int(h.upCnt[slot]); cnt < maxM {
			h.upNbrs[slot*h.cfg.M+cnt] = nb
			h.upCnt[slot]++
			return
		}
	}
	b := h.build
	b.linkBuf = append(b.linkBuf[:0], h.layerNeighbors(n, l)...)
	b.linkBuf = append(b.linkBuf, nb)
	b.shrinkSel = h.selectHeuristicInto(b.shrinkSel[:0], n, b.linkBuf, maxM)
	h.setLinks(n, l, b.shrinkSel)
}

// randomLevel draws a node level from the exponential distribution of the
// HNSW paper: floor(-ln(U) * mL).
func (h *HNSW) randomLevel() int {
	rng := h.build.rng
	u := rng.Float64()
	h.draws++
	for u == 0 {
		u = rng.Float64()
		h.draws++
	}
	return int(-math.Log(u) * h.levelM)
}

// Add implements Index. The vector is copied into the arena and normalized
// on insertion: cosine distance is invariant to scaling, and unit-length
// storage turns every distance evaluation into a single dot product.
func (h *HNSW) Add(id int, v Vector) error { return h.add(id, v, false) }

// AddUnit implements Index: the vector is copied into the arena verbatim,
// so a graph rebuilt from another graph's arena (a compaction merge, a
// migration) is the graph the first inserts built.
func (h *HNSW) AddUnit(id int, v Vector) error { return h.add(id, v, true) }

// Vec implements Index.
func (h *HNSW) Vec(id int) Vector {
	n, ok := h.byID[id]
	if !ok {
		return nil
	}
	return h.vec(n)
}

func (h *HNSW) add(id int, v Vector, unit bool) error {
	if int64(id) != int64(int32(id)) {
		return ErrIDOutOfRange
	}
	if _, dup := h.byID[id]; dup {
		return ErrDuplicateID
	}
	if len(v) == 0 {
		return errEmptyVector
	}
	if h.dim == 0 {
		h.dim = len(v)
	} else if len(v) != h.dim {
		return ErrDimensionMismatch
	}
	b := h.builder()
	level := h.randomLevel()
	idx := int32(len(h.ids))

	h.ids = append(h.ids, int32(id))
	h.levels = append(h.levels, int32(level))
	h.slots = append(h.slots, h.storeVec(v, unit))
	for i := 0; i < h.m0; i++ {
		h.links0 = append(h.links0, 0)
	}
	h.cnt0 = append(h.cnt0, 0)
	if level > 0 {
		h.upOff = append(h.upOff, int32(len(h.upCnt)))
		for i := 0; i < level; i++ {
			h.upCnt = append(h.upCnt, 0)
			for j := 0; j < h.cfg.M; j++ {
				h.upNbrs = append(h.upNbrs, 0)
			}
		}
	} else {
		h.upOff = append(h.upOff, -1)
	}
	h.byID[id] = idx
	b.pc.fit(len(h.ids), h.pcMax)

	if h.entry < 0 {
		h.entry = idx
		h.maxLvl = level
		return nil
	}

	q := h.vec(idx)
	ep := h.entry
	// Greedy descent through layers above the new node's level.
	for l := h.maxLvl; l > level; l-- {
		ep = h.greedyF(&b.cst, q, ep, l)
	}
	// Insert with neighbor selection from min(level, maxLvl) down to 0.
	top := level
	if top > h.maxLvl {
		top = h.maxLvl
	}
	b.eps = append(b.eps[:0], ep)
	for l := top; l >= 0; l-- {
		cand := h.searchLayerF(idx, b.eps, h.cfg.EfConstruction, l)
		b.nbrSel = h.selectHeuristicInto(b.nbrSel[:0], idx, cand, h.maxM(l))
		h.setLinks(idx, l, b.nbrSel)
		for _, n := range b.nbrSel {
			h.addLink(n, l, idx)
		}
		b.eps = append(b.eps[:0], cand...)
	}
	if level > h.maxLvl {
		h.maxLvl = level
		h.entry = idx
	}
	return nil
}

func (h *HNSW) maxM(layer int) int {
	if layer == 0 {
		return h.m0
	}
	return h.cfg.M
}

// greedyF walks layer l greedily from ep toward q over the float32 arena
// and returns the local minimum. Each step computes the distances of the
// whole neighbour list first (st.dist is the scratch), then scans them in
// list order for strict improvements.
func (h *HNSW) greedyF(st *searchState, q []float32, ep int32, l int) int32 {
	best := ep
	bestD := 1 - dotF(q, h.vec(ep))
	st.evals++
	for {
		improved := false
		nbrs := h.layerNeighbors(best, l)
		st.dist = h.dists(st.dist[:0], q, nbrs)
		st.evals += len(nbrs)
		for i, d := range st.dist {
			if d < bestD {
				best, bestD = nbrs[i], d
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

// searchLayerF is Algorithm 2 of the HNSW paper over the float32 arena:
// beam search for node idx's neighbours with candidate list size ef at
// layer l, starting from entry points eps. It returns up to ef node
// ordinals ordered from closest to farthest, valid until the next
// construction call (shared scratch).
//
// Each expansion marks its unseen neighbours in list order, computes their
// distances as one batch, then pushes them in that same order under the
// same conditions as the one-at-a-time loop — so the heaps, and the links
// built from them, are unchanged.
func (h *HNSW) searchLayerF(idx int32, eps []int32, ef, l int) []int32 {
	b := h.build
	st := &b.cst
	st.begin(len(h.ids))
	st.dist = h.pairDists(st.dist[:0], idx, st.markUnseen(eps))
	for i, ep := range st.nodes {
		pushMin(&st.cand, qItem{ep, st.dist[i]})
		pushMax(&st.res, qItem{ep, st.dist[i]})
	}
	for len(st.cand) > 0 {
		c := popMin(&st.cand)
		if len(st.res) >= ef && c.key > st.res[0].key {
			break
		}
		st.dist = h.pairDists(st.dist[:0], idx, st.markUnseen(h.layerNeighbors(c.node, l)))
		for i, n := range st.nodes {
			d := st.dist[i]
			if len(st.res) < ef || d < st.res[0].key {
				pushMin(&st.cand, qItem{n, d})
				pushMax(&st.res, qItem{n, d})
				if len(st.res) > ef {
					popMax(&st.res)
				}
			}
		}
	}
	n := len(st.res)
	if cap(b.layerBuf) < n {
		b.layerBuf = make([]int32, n, n+n/2+8)
	}
	b.layerBuf = b.layerBuf[:n]
	for i := n - 1; i >= 0; i-- {
		b.layerBuf[i] = popMax(&st.res).node
	}
	return b.layerBuf
}

// selectHeuristicInto is Algorithm 4 (select-neighbors-heuristic): it keeps
// a candidate only if it is closer to node a than to every already-selected
// neighbor, producing diverse links that preserve graph navigability. The
// selection is appended to dst (typically a reused scratch slice).
func (h *HNSW) selectHeuristicInto(dst []int32, a int32, cand []int32, m int) []int32 {
	if len(cand) <= m {
		return append(dst, cand...)
	}
	b := h.build
	st := &b.cst
	st.dist = h.pairDists(st.dist[:0], a, cand)
	b.cds = b.cds[:0]
	for i, c := range cand {
		b.cds = append(b.cds, candDist{c, st.dist[i]})
	}
	sortByDist(b.cds)

	selected := dst
	b.disc = b.disc[:0]
	for _, c := range b.cds {
		if len(selected) >= m {
			break
		}
		if h.diverse(c, selected) {
			selected = append(selected, c.node)
		} else {
			b.disc = append(b.disc, c.node)
		}
	}
	// keepPruned: fill remaining slots with the closest discarded nodes.
	for _, c := range b.disc {
		if len(selected) >= m {
			break
		}
		selected = append(selected, c)
	}
	return selected
}

// sortByDist orders cds by ascending distance with the unstable pdqsort
// sort.Slice ran here before, which slices.SortFunc shares — without the
// reflection-built swapper and closure sort.Slice allocates per call. Not
// a stable sort or an id tiebreak: exact distance ties are common (every
// chunk of a page shares its title vector), and the order the pdqsort
// leaves them in is part of the graph (TestHNSWGraphPinned,
// TestSortByDistMatchesSortSlice).
func sortByDist(cds []candDist) {
	slices.SortFunc(cds, func(a, b candDist) int {
		switch {
		case a.dist < b.dist:
			return -1
		case a.dist > b.dist:
			return 1
		}
		return 0
	})
}

// diverse reports whether candidate c is no closer to any already-selected
// neighbour than to the node being linked — the heuristic's keep test. Any
// one closer neighbour rejects, so the order of the checks cannot change
// the decision: remembered distances go first, and a candidate one of them
// rejects costs no dot product. The rest are computed four per batch, so a
// rejected candidate may cost up to three distances past the one that
// rejects it.
func (h *HNSW) diverse(c candDist, selected []int32) bool {
	b := h.build
	st := &b.cst
	b.pending = b.pending[:0]
	for _, s := range selected {
		if d, ok := b.pc.get(pairKey(c.node, s)); !ok {
			b.pending = append(b.pending, s)
		} else if d < c.dist {
			return false
		}
	}
	selected = b.pending
	for i := 0; i < len(selected); i += 4 {
		st.dist = h.pairDists(st.dist[:0], c.node, selected[i:min(i+4, len(selected))])
		for _, d := range st.dist {
			if d < c.dist {
				return false
			}
		}
	}
	return true
}

// getState checks a pooled search state out for one query.
func (h *HNSW) getState() *searchState {
	st, _ := h.statePool.Get().(*searchState)
	if st == nil {
		st = &searchState{}
	}
	st.begin(len(h.ids))
	return st
}

// Search implements Index: beam search from the top layer down.
func (h *HNSW) Search(q Vector, k int) []Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	q = Normalize(append(Vector(nil), q...))
	return h.SearchUnit(q, k, nil)
}

// SearchUnit implements Index: it descends the upper layers greedily, runs
// the layer-0 beam with candidate list size max(EfSearch, k) and returns
// the k closest survivors under (distance, id) order. The beam keys its
// result heap on the exact distance 1 - dot(q, vec(n)) (see dists), so the
// survivors are returned with the distances the beam ranked them by.
func (h *HNSW) SearchUnit(q Vector, k int, accept Accept) []Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	st := h.getState()
	ep := h.entry
	for l := h.maxLvl; l > 0; l-- {
		ep = h.greedyF(st, q, ep, l)
	}
	h.beamF(st, q, ep, max(h.cfg.EfSearch, k), accept)
	for _, it := range st.res {
		st.hits = append(st.hits, Result{ID: int(h.ids[it.node]), Distance: it.key})
	}
	sortResultsInPlace(st.hits)
	out := make([]Result, min(k, len(st.hits)))
	copy(out, st.hits)
	h.statePool.Put(st)
	return out
}

// beamF runs the layer-0 search with candidate list size ef from ep, each
// expansion's distances batched as in searchLayerF, and leaves the best ef
// accepted nodes in st.res. Nodes rejected by accept still feed the
// frontier (the graph stays navigable through them) but never enter the
// result heap.
func (h *HNSW) beamF(st *searchState, q Vector, ep int32, ef int, accept Accept) {
	st.mark(ep)
	d := 1 - dotF(q, h.vec(ep))
	pushMin(&st.cand, qItem{ep, d})
	if accept == nil || accept(h.ids[ep]) {
		pushMax(&st.res, qItem{ep, d})
	}
	for len(st.cand) > 0 {
		c := popMin(&st.cand)
		if len(st.res) >= ef && c.key > st.res[0].key {
			break
		}
		st.dist = h.dists(st.dist[:0], q, st.markUnseen(h.neighbors0(c.node)))
		for i, n := range st.nodes {
			d := st.dist[i]
			if len(st.res) < ef || d < st.res[0].key {
				pushMin(&st.cand, qItem{n, d})
				if accept == nil || accept(h.ids[n]) {
					pushMax(&st.res, qItem{n, d})
					if len(st.res) > ef {
						popMax(&st.res)
					}
				}
			}
		}
	}
}

// MaxLevel reports the current top layer of the graph (diagnostics).
func (h *HNSW) MaxLevel() int { return h.maxLvl }

// AvgDegree reports the mean layer-0 out-degree (diagnostics).
func (h *HNSW) AvgDegree() float64 {
	if len(h.ids) == 0 {
		return 0
	}
	total := 0
	for _, c := range h.cnt0 {
		total += int(c)
	}
	return float64(total) / float64(len(h.ids))
}
