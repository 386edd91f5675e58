// Package fusion implements Reciprocal Rank Fusion (RRF), the algorithm
// Azure AI Search — and therefore UniAsk — uses to merge the rankings
// produced by full-text search and by each vector field into a single
// hybrid ranking. Each document receives, from every ranking it appears in,
// a score of 1/(rank + c); the fused score is the sum.
package fusion

import "sort"

// DefaultC is the RRF constant used by Azure AI Search and by the paper.
const DefaultC = 60

// Ranking is an ordered list of document ids, best first.
type Ranking []string

// Fused is one entry of the fused ranking.
type Fused struct {
	// ID is the document id.
	ID string
	// Score is the summed reciprocal-rank score.
	Score float64
}

// RRF fuses the given rankings with constant c (DefaultC when c < 1, since
// the paper requires c >= 1). Ties are broken by id for determinism.
func RRF(rankings []Ranking, c int) []Fused {
	if c < 1 {
		c = DefaultC
	}
	scores := make(map[string]*Fused)
	order := make([]string, 0)
	for _, r := range rankings {
		for rank, id := range r {
			f, ok := scores[id]
			if !ok {
				f = &Fused{ID: id}
				scores[id] = f
				order = append(order, id)
			}
			// The paper's formula is 1/(rank + c) with 1-based ranks.
			f.Score += 1.0 / float64(rank+1+c)
		}
	}
	out := make([]Fused, 0, len(order))
	for _, id := range order {
		out = append(out, *scores[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}
