package index

import (
	"math"
	"sort"

	"uniask/internal/vector"
)

// Hit is one full-text search result.
type Hit struct {
	// ID is the external chunk id.
	ID string
	// Score is the BM25 relevance score.
	Score float64
}

// Filter is an exact-match predicate on a filterable field.
type Filter struct {
	Field string
	Value string
}

// TextOptions configures full-text search.
type TextOptions struct {
	// Fields restricts scoring to these searchable fields; all searchable
	// fields are used when empty.
	Fields []string
	// FieldWeights multiplies the BM25 contribution of a field (used by the
	// paper's title-boost experiments T5/T50/T500). Weight 0 means 1.
	FieldWeights map[string]float64
	// Filters are conjunctive exact-match predicates.
	Filters []Filter
}

// scoreAcc is the pooled flat score accumulator of the BM25 hot path: a
// []float64 indexed by document ordinal, a bitset marking which ordinals
// were touched, and the touched-ordinal list used to reset both in O(hits)
// instead of O(corpus).
type scoreAcc struct {
	scores  []float64
	seen    []uint64
	touched []int32
}

// getAcc returns an accumulator sized for the current corpus; the caller
// must hold ix.mu.
func (ix *Index) getAcc() *scoreAcc {
	a, _ := ix.accPool.Get().(*scoreAcc)
	if a == nil {
		a = &scoreAcc{}
	}
	if n := len(ix.docs); len(a.scores) < n {
		a.scores = make([]float64, n)
		a.seen = make([]uint64, (n+63)/64)
	}
	return a
}

// putAcc zeroes the touched entries and recycles the accumulator.
func (ix *Index) putAcc(a *scoreAcc) {
	for _, ord := range a.touched {
		a.scores[ord] = 0
		a.seen[ord>>6] &^= 1 << (uint(ord) & 63)
	}
	a.touched = a.touched[:0]
	ix.accPool.Put(a)
}

// SearchText ranks documents against query with Okapi BM25, summing
// per-field scores (weighted when FieldWeights is set), and returns the top
// n hits.
//
// Hot path: scores accumulate into a pooled flat []float64 indexed by doc
// ordinal (no per-query map), the top n are selected with a bounded
// min-heap instead of sorting every candidate, and the tombstone and filter
// branches are skipped entirely when no deletes/filters exist. The ranking
// (score desc, id asc) is identical to a full sort.
func (ix *Index) SearchText(query string, n int, opts TextOptions) []Hit {
	return ix.searchText(query, n, opts, nil)
}

// SearchTextGlobal is SearchText with the BM25 corpus statistics — document
// count, per-field total token length, per-term document frequency —
// injected by the caller instead of derived from this index alone. The
// sharded facade collects stats across all shards (CollectStats + Merge) and
// passes the aggregate here, so each shard scores with global idf and
// average length and the merged ranking is identical to a monolithic index.
//
// The stats must cover every queried field and term present in this shard
// (a term's global DF is never below its local DF). nil stats falls back to
// local statistics, i.e. plain SearchText.
func (ix *Index) SearchTextGlobal(query string, n int, opts TextOptions, stats *CorpusStats) []Hit {
	return ix.searchText(query, n, opts, stats)
}

func (ix *Index) searchText(query string, n int, opts TextOptions, gs *CorpusStats) []Hit {
	if n <= 0 {
		return nil
	}
	terms := analyzer.AnalyzeTerms(query)
	if len(terms) == 0 {
		return nil
	}
	// Deduplicate query terms in place, keeping multiplicity as a weight —
	// Lucene scores repeated terms once per occurrence. Queries are short,
	// so the quadratic scan beats a map.
	counts := make([]int32, 0, len(terms))
	uniq := 0
dedup:
	for _, t := range terms {
		for i := 0; i < uniq; i++ {
			if terms[i] == t {
				counts[i]++
				continue dedup
			}
		}
		terms[uniq] = t
		counts = append(counts, 1)
		uniq++
	}
	terms = terms[:uniq]

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.docs) == 0 {
		return nil
	}

	fieldNames := opts.Fields
	if len(fieldNames) == 0 {
		fieldNames = ix.searchNames
	}
	allowed, filtered := ix.filterBits(opts.Filters)
	noDeletes := len(ix.deleted) == 0

	acc := ix.getAcc()
	scores, seen, touched := acc.scores, acc.seen, acc.touched

	N := float64(len(ix.docs))
	if gs != nil {
		N = float64(gs.Docs)
	}
	k1, b := ix.cfg.BM25.K1, ix.cfg.BM25.B
	for _, fname := range fieldNames {
		fi, ok := ix.fields[fname]
		if !ok {
			continue
		}
		weight := 1.0
		if w, ok := opts.FieldWeights[fname]; ok && w != 0 {
			weight = w
		}
		if len(fi.docLens) == 0 {
			continue
		}
		var avgLen float64
		var globalDF map[string]int
		if gs != nil {
			if gs.Docs == 0 {
				continue
			}
			fstats := gs.Fields[fname]
			avgLen = float64(fstats.TotalLen) / float64(gs.Docs)
			globalDF = fstats.DF
		} else {
			avgLen = float64(fi.totalLen) / float64(len(fi.docLens))
		}
		if avgLen == 0 {
			continue
		}
		docLens := fi.docLens
		for ti, term := range terms {
			pl := fi.postings[term]
			if len(pl) == 0 {
				continue
			}
			// Okapi BM25 idf with the standard +1 smoothing (Lucene).
			df := float64(len(pl))
			if globalDF != nil {
				if gdf := globalDF[term]; gdf > len(pl) {
					df = float64(gdf)
				}
			}
			idf := math.Log(1 + (N-df+0.5)/(df+0.5))
			wm := weight * float64(counts[ti])
			if noDeletes && !filtered {
				// Fast path: no tombstone or filter check per posting.
				for _, p := range pl {
					tf := float64(p.tf)
					dl := float64(docLens[p.doc])
					s := idf * (tf * (k1 + 1)) / (tf + k1*(1-b+b*dl/avgLen))
					if seen[p.doc>>6]&(1<<(uint(p.doc)&63)) == 0 {
						seen[p.doc>>6] |= 1 << (uint(p.doc) & 63)
						touched = append(touched, p.doc)
					}
					scores[p.doc] += wm * s
				}
				continue
			}
			for _, p := range pl {
				if !noDeletes && ix.deleted[p.doc] {
					continue
				}
				if filtered && !bitTest(allowed, p.doc) {
					continue
				}
				tf := float64(p.tf)
				dl := float64(docLens[p.doc])
				s := idf * (tf * (k1 + 1)) / (tf + k1*(1-b+b*dl/avgLen))
				if seen[p.doc>>6]&(1<<(uint(p.doc)&63)) == 0 {
					seen[p.doc>>6] |= 1 << (uint(p.doc) & 63)
					touched = append(touched, p.doc)
				}
				scores[p.doc] += wm * s
			}
		}
	}
	acc.touched = touched

	hits := ix.selectTopN(scores, touched, n)
	ix.putAcc(acc)
	return hits
}

// selectTopN picks the n best candidates under the total order (score desc,
// id asc). For candidate sets larger than n it maintains a bounded min-heap
// rooted at the current worst hit; since the order is total (ids are
// unique) the result is identical to fully sorting all candidates and
// truncating. The caller must hold ix.mu.
func (ix *Index) selectTopN(scores []float64, touched []int32, n int) []Hit {
	if len(touched) <= n {
		hits := make([]Hit, 0, len(touched))
		for _, ord := range touched {
			hits = append(hits, Hit{ID: ix.docs[ord].ID, Score: scores[ord]})
		}
		SortHits(hits)
		return hits
	}
	hits := make([]Hit, 0, n)
	for _, ord := range touched {
		h := Hit{ID: ix.docs[ord].ID, Score: scores[ord]}
		if len(hits) < n {
			hits = append(hits, h)
			siftUp(hits, len(hits)-1)
			continue
		}
		if worseHit(hits[0], h) {
			hits[0] = h
			siftDown(hits, 0)
		}
	}
	SortHits(hits)
	return hits
}

// worseHit reports whether a ranks strictly below b (lower score, or equal
// score and lexicographically greater id).
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// siftUp restores the min-heap (worst hit at the root) after appending at i.
func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worseHit(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap after replacing the root.
func siftDown(h []Hit, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && worseHit(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && worseHit(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// SortHits orders hits by score descending, ties broken by id ascending —
// the canonical total order of every text search result in the system. The
// sharded facade re-sorts the union of per-shard hits with it, which is why
// it is exported: a single total order shared by shard merge and local
// top-n selection is what makes sharded and monolithic rankings identical.
func SortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
}

// SearchVector returns the k nearest chunks to q in the given vector field,
// optionally filtered. Tombstones and filter bitsets are pushed into the
// graph walk as an Accept predicate — disqualified chunks are traversed for
// connectivity but never occupy result slots — so heavy filtering fills k
// survivors in one walk instead of the old geometric over-fetch-and-
// re-search loop.
func (ix *Index) SearchVector(field string, q vector.Vector, k int, filters []Filter) []Hit {
	qn := vector.Normalize(append(vector.Vector(nil), q...))
	return ix.SearchVectorUnit(field, qn, k, filters)
}

// SearchVectorUnit is SearchVector for callers that already normalized the
// query once per request (the segmented store and the shard facade fan one
// unit query out to every part). q must be unit length and is not modified.
func (ix *Index) SearchVectorUnit(field string, q vector.Vector, k int, filters []Filter) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	vx, ok := ix.vecs[field]
	if !ok || k <= 0 {
		return nil
	}
	allowed, filtered := ix.filterBits(filters)
	var accept vector.Accept
	if deleted := ix.deleted; filtered || len(deleted) > 0 {
		accept = func(id int32) bool {
			if len(deleted) > 0 && deleted[id] {
				return false
			}
			return !filtered || bitTest(allowed, id)
		}
	}
	res := vx.SearchUnit(q, k, accept)
	hits := make([]Hit, 0, len(res))
	for _, r := range res {
		hits = append(hits, Hit{ID: ix.docs[r.ID].ID, Score: 1 - float64(r.Distance)})
	}
	return hits
}

// VectorFields lists the vector fields present in the schema, sorted. The
// returned slice is computed once at construction and shared — callers must
// treat it as read-only.
func (ix *Index) VectorFields() []string { return ix.vecNames }

// SearchableFields lists the searchable fields, sorted; shared, read-only.
func (ix *Index) SearchableFields() []string { return ix.searchNames }
