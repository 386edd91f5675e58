package vector

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
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
	// DisableQuantization makes search traverse the float32 arena instead
	// of the int8 quantized one. Traversal distances are then exact, at
	// ~4× the memory bandwidth; the rescoring pass still runs so results
	// are identical in format and tie order.
	DisableQuantization bool
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
//   - vecs is one contiguous float32 arena (node n's unit vector occupies
//     vecs[n*dim : (n+1)*dim]); qvecs is its int8 scalar-quantized shadow
//     (see quantize.go).
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
	rng    *rand.Rand
	levelM float64 // 1/ln(M): the level-assignment normalizer from the paper
	dim    int
	m0     int // 2*M, the layer-0 block stride

	ids    []int32 // node ordinal -> external id
	levels []int32
	vecs   []float32
	qvecs  []int8
	qscale float32 // 127/maxAbs; 0 until a nonzero vector is stored
	maxAbs float32

	links0 []int32
	cnt0   []int32
	upOff  []int32
	upNbrs []int32
	upCnt  []int32

	// Construction scratch (Add is externally serialized, so these are
	// plain fields rather than pooled).
	cst       searchState
	eps       []int32
	layerBuf  []int32
	nbrSel    []int32
	linkBuf   []int32
	shrinkSel []int32
	cds       []candDist
	disc      []int32

	// pc memoizes node-to-node distances for construction (see pairDists);
	// pcMax caps its entries, and 0 turns it off (a test seam). missAt,
	// missNodes and missDist are one pairDists call's misses; pending is
	// diverse's uncached neighbours.
	pc        pairCache
	pcMax     int
	missAt    []int32
	missNodes []int32
	missDist  []float32
	pending   []int32

	statePool sync.Pool
}

// candDist pairs a candidate ordinal with its distance during neighbor
// selection.
type candDist struct {
	node int32
	dist float32
}

// NewHNSW creates an empty HNSW index with the given configuration.
func NewHNSW(cfg HNSWConfig) *HNSW {
	cfg = cfg.withDefaults()
	return &HNSW{
		cfg:    cfg,
		byID:   make(map[int]int32),
		entry:  -1,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		levelM: 1 / math.Log(float64(cfg.M)),
		m0:     2 * cfg.M,
		pcMax:  pairCacheMax,
	}
}

// Len implements Index.
func (h *HNSW) Len() int { return len(h.ids) }

// Arena views. A view's capacity ends with its slot, so reslicing it past
// dim (as dotF4 and dotQ do to match a longer query) panics rather than
// reading the next node's vector.
func (h *HNSW) vec(n int32) []float32 {
	s := int(n) * h.dim
	return h.vecs[s : s+h.dim : s+h.dim]
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
// hence the graph, is the same. Misses count in h.cst.evals.
func (h *HNSW) pairDists(dst []float32, a int32, nodes []int32) []float32 {
	if len(h.pc.slots) == 0 {
		h.cst.evals += len(nodes)
		return h.dists(dst, h.vec(a), nodes)
	}
	base := len(dst)
	h.missAt, h.missNodes = h.missAt[:0], h.missNodes[:0]
	for i, n := range nodes {
		if d, ok := h.pc.get(pairKey(a, n)); ok {
			dst = append(dst, d)
			continue
		}
		dst = append(dst, 0)
		h.missAt = append(h.missAt, int32(base+i))
		h.missNodes = append(h.missNodes, n)
	}
	h.missDist = h.dists(h.missDist[:0], h.vec(a), h.missNodes)
	for j, d := range h.missDist {
		dst[h.missAt[j]] = d
		h.pc.put(pairKey(a, h.missNodes[j]), d)
	}
	h.cst.evals += len(h.missNodes)
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

// ReleaseBuildCache frees the construction-only pair cache. The index
// layer calls it when a segment is sealed and will receive no more Adds;
// an Add after it simply starts a new cache, so the graph is unaffected.
func (h *HNSW) ReleaseBuildCache() { h.pc = pairCache{} }

// BuildCacheEntries reports the pair cache's size in entries, 0 when none
// is held (diagnostics).
func (h *HNSW) BuildCacheEntries() int { return len(h.pc.slots) }

func (h *HNSW) qvec(n int32) []int8 {
	s := int(n) * h.dim
	return h.qvecs[s : s+h.dim : s+h.dim]
}

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
	h.linkBuf = append(h.linkBuf[:0], h.layerNeighbors(n, l)...)
	h.linkBuf = append(h.linkBuf, nb)
	h.shrinkSel = h.selectHeuristicInto(h.shrinkSel[:0], n, h.linkBuf, maxM)
	h.setLinks(n, l, h.shrinkSel)
}

// randomLevel draws a node level from the exponential distribution of the
// HNSW paper: floor(-ln(U) * mL).
func (h *HNSW) randomLevel() int {
	u := h.rng.Float64()
	for u == 0 {
		u = h.rng.Float64()
	}
	return int(-math.Log(u) * h.levelM)
}

// Add implements Index. The vector is copied into the arena and normalized
// on insertion: cosine distance is invariant to scaling, and unit-length
// storage turns every distance evaluation into a single dot product.
// Construction walks the float32 arena (exact distances, off the query hot
// path); only searches use the quantized shadow.
func (h *HNSW) Add(id int, v Vector) error {
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
	level := h.randomLevel()
	idx := int32(len(h.ids))

	start := len(h.vecs)
	h.vecs = append(h.vecs, v...)
	nv := h.vecs[start:]
	normalizeF(nv)
	if m := maxAbsF(nv); m > h.maxAbs {
		// A new largest component: requantize the arena under the new
		// scale so the quantized shadow stays a pure function of the
		// stored vector set (insertion-order independent).
		h.maxAbs = m
		h.qscale = quantMax / m
		h.qvecs = h.qvecs[:0]
		for i := 0; i < len(h.ids); i++ {
			h.qvecs = quantizeInto(h.qvecs, h.vec(int32(i)), h.qscale)
		}
	}
	h.qvecs = quantizeInto(h.qvecs, nv, h.qscale)

	h.ids = append(h.ids, int32(id))
	h.levels = append(h.levels, int32(level))
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
	h.pc.fit(len(h.ids), h.pcMax)

	if h.entry < 0 {
		h.entry = idx
		h.maxLvl = level
		return nil
	}

	q := h.vec(idx)
	ep := h.entry
	// Greedy descent through layers above the new node's level.
	for l := h.maxLvl; l > level; l-- {
		ep = h.greedyF(&h.cst, q, ep, l)
	}
	// Insert with neighbor selection from min(level, maxLvl) down to 0.
	top := level
	if top > h.maxLvl {
		top = h.maxLvl
	}
	h.eps = append(h.eps[:0], ep)
	for l := top; l >= 0; l-- {
		cand := h.searchLayerF(idx, h.eps, h.cfg.EfConstruction, l)
		h.nbrSel = h.selectHeuristicInto(h.nbrSel[:0], idx, cand, h.maxM(l))
		h.setLinks(idx, l, h.nbrSel)
		for _, n := range h.nbrSel {
			h.addLink(n, l, idx)
		}
		h.eps = append(h.eps[:0], cand...)
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

// greedyQ is greedyF over the quantized arena (int32 keys, no float
// conversion needed for a strict descent).
func (h *HNSW) greedyQ(qq []int8, ep int32, l int) int32 {
	best := ep
	bestD := -dotQ(qq, h.qvec(ep))
	for {
		improved := false
		for _, n := range h.layerNeighbors(best, l) {
			if d := -dotQ(qq, h.qvec(n)); d < bestD {
				best, bestD = n, d
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
	st := &h.cst
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
	if cap(h.layerBuf) < n {
		h.layerBuf = make([]int32, n, n+n/2+8)
	}
	h.layerBuf = h.layerBuf[:n]
	for i := n - 1; i >= 0; i-- {
		h.layerBuf[i] = popMax(&st.res).node
	}
	return h.layerBuf
}

// selectHeuristicInto is Algorithm 4 (select-neighbors-heuristic): it keeps
// a candidate only if it is closer to node a than to every already-selected
// neighbor, producing diverse links that preserve graph navigability. The
// selection is appended to dst (typically a reused scratch slice).
func (h *HNSW) selectHeuristicInto(dst []int32, a int32, cand []int32, m int) []int32 {
	if len(cand) <= m {
		return append(dst, cand...)
	}
	st := &h.cst
	st.dist = h.pairDists(st.dist[:0], a, cand)
	h.cds = h.cds[:0]
	for i, c := range cand {
		h.cds = append(h.cds, candDist{c, st.dist[i]})
	}
	// sort.Slice, not a stable sort or an id tiebreak: exact distance ties
	// are common (every chunk of a page shares its title vector), and the
	// order sort.Slice leaves them in is part of the graph
	// (TestHNSWGraphPinned).
	sort.Slice(h.cds, func(i, j int) bool { return h.cds[i].dist < h.cds[j].dist })

	selected := dst
	h.disc = h.disc[:0]
	for _, c := range h.cds {
		if len(selected) >= m {
			break
		}
		if h.diverse(c, selected) {
			selected = append(selected, c.node)
		} else {
			h.disc = append(h.disc, c.node)
		}
	}
	// keepPruned: fill remaining slots with the closest discarded nodes.
	for _, c := range h.disc {
		if len(selected) >= m {
			break
		}
		selected = append(selected, c)
	}
	return selected
}

// diverse reports whether candidate c is no closer to any already-selected
// neighbour than to the node being linked — the heuristic's keep test. Any
// one closer neighbour rejects, so the order of the checks cannot change
// the decision: remembered distances go first, and a candidate one of them
// rejects costs no dot product. The rest are computed four per batch, so a
// rejected candidate may cost up to three distances past the one that
// rejects it.
func (h *HNSW) diverse(c candDist, selected []int32) bool {
	st := &h.cst
	h.pending = h.pending[:0]
	for _, s := range selected {
		if d, ok := h.pc.get(pairKey(c.node, s)); !ok {
			h.pending = append(h.pending, s)
		} else if d < c.dist {
			return false
		}
	}
	selected = h.pending
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

// SearchUnit implements Index. The quantized path descends the upper
// layers and runs the layer-0 beam over int8 dot products, then rescores
// every surviving candidate (at most ef) against the float32 arena and
// returns the top k under exact (distance, id) order — so quantization can
// only cost recall at the beam edge, never final-ranking precision among
// the survivors. Nodes rejected by accept still feed the frontier (the
// graph stays navigable through them) but never enter the result heap.
func (h *HNSW) SearchUnit(q Vector, k int, accept Accept) []Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	st := h.getState()
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	if h.cfg.DisableQuantization {
		ep := h.entry
		for l := h.maxLvl; l > 0; l-- {
			ep = h.greedyF(st, q, ep, l)
		}
		h.beamF(st, q, ep, ef, accept)
	} else {
		st.qq = quantizeInto(st.qq[:0], q, h.qscale)
		ep := h.entry
		for l := h.maxLvl; l > 0; l-- {
			ep = h.greedyQ(st.qq, ep, l)
		}
		h.beamQ(st, ep, ef, accept)
	}
	// Rescore the survivors with exact float32 distances.
	st.nodes = st.nodes[:0]
	for _, it := range st.res {
		st.nodes = append(st.nodes, it.node)
	}
	st.dist = h.dists(st.dist[:0], q, st.nodes)
	for i, n := range st.nodes {
		st.rescore = append(st.rescore, Result{ID: int(h.ids[n]), Distance: st.dist[i]})
	}
	sortResultsInPlace(st.rescore)
	if k > len(st.rescore) {
		k = len(st.rescore)
	}
	out := make([]Result, k)
	copy(out, st.rescore[:k])
	h.statePool.Put(st)
	return out
}

// beamQ runs the layer-0 beam over the quantized arena. The result heap
// keys are negated int8 dot products widened to float32 (exact for any
// realistic dimension, see qItem).
func (h *HNSW) beamQ(st *searchState, ep int32, ef int, accept Accept) {
	st.mark(ep)
	d := float32(-dotQ(st.qq, h.qvec(ep)))
	pushMin(&st.cand, qItem{ep, d})
	if accept == nil || accept(h.ids[ep]) {
		pushMax(&st.res, qItem{ep, d})
	}
	for len(st.cand) > 0 {
		c := popMin(&st.cand)
		if len(st.res) >= ef && c.key > st.res[0].key {
			break
		}
		for _, n := range h.neighbors0(c.node) {
			if st.seen(n) {
				continue
			}
			st.mark(n)
			d := float32(-dotQ(st.qq, h.qvec(n)))
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

// beamF is beamQ over the float32 arena (exact traversal distances), each
// expansion's distances batched as in searchLayerF.
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
