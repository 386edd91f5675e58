package vector

// Pooled search state. Every HNSW search needs a visited set, a frontier
// min-heap, a bounded result max-heap, a result scratch and a distance
// batch. All five live in one searchState recycled through a sync.Pool per
// index, so a steady-state search allocates nothing beyond the
// caller-visible result slice.
//
// The visited set is an epoch-stamped []uint32 indexed by node ordinal:
// visited[n] == epoch means "seen this search". Bumping the epoch resets
// the whole set in O(1); the array is only zeroed when the uint32 epoch
// wraps (once per ~4 billion searches on one pooled state).

// qItem is one heap entry: a node ordinal and its sort key, the exact
// float32 cosine distance 1 - dot(q, vec(node)).
type qItem struct {
	node int32
	key  float32
}

type searchState struct {
	visited []uint32
	epoch   uint32
	cand    []qItem  // frontier: min-heap, closest first
	res     []qItem  // best ef so far: max-heap, farthest at root
	hits    []Result // res as Results, sorted before the top-k cut
	// nodes and dist are one batch for HNSW.dists: the nodes whose
	// distances are due (an expansion's unseen neighbours) and those
	// distances, index for index.
	nodes []int32
	dist  []float32
	// evals counts the distances computed on this state; only the
	// construction state's count is read (BenchmarkHNSWBuild's dists/op).
	evals int
}

// begin prepares the state for a search over n nodes.
func (st *searchState) begin(n int) {
	if len(st.visited) < n {
		st.visited = make([]uint32, n+n/2+8)
		st.epoch = 0
	}
	st.epoch++
	if st.epoch == 0 { // wrapped: stale stamps could collide, zero once
		for i := range st.visited {
			st.visited[i] = 0
		}
		st.epoch = 1
	}
	st.cand = st.cand[:0]
	st.res = st.res[:0]
	st.hits = st.hits[:0]
}

func (st *searchState) seen(n int32) bool { return st.visited[n] == st.epoch }
func (st *searchState) mark(n int32)      { st.visited[n] = st.epoch }

// markUnseen marks every node of list not yet seen this search, in list
// order, and returns them as st.nodes.
func (st *searchState) markUnseen(list []int32) []int32 {
	st.nodes = st.nodes[:0]
	for _, n := range list {
		if !st.seen(n) {
			st.mark(n)
			st.nodes = append(st.nodes, n)
		}
	}
	return st.nodes
}

// pushMin/popMin maintain the frontier min-heap (smallest key at root).
func pushMin(h *[]qItem, it qItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func popMin(h *[]qItem) qItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && s[l].key < s[small].key {
			small = l
		}
		if r := 2*i + 2; r < n && s[r].key < s[small].key {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// pushMax/popMax maintain the result max-heap (largest key at root).
func pushMax(h *[]qItem, it qItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key >= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func popMax(h *[]qItem) qItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		big := i
		if l := 2*i + 1; l < n && s[l].key > s[big].key {
			big = l
		}
		if r := 2*i + 2; r < n && s[r].key > s[big].key {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return top
}

// sortResultsInPlace orders results by (distance asc, id asc)
// with an allocation-free insertion sort; the slice never exceeds ef
// elements, where insertion sort beats the sort package's overhead.
func sortResultsInPlace(rs []Result) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for j >= 0 && resultBefore(r, rs[j]) {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
}
