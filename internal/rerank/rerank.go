// Package rerank implements the semantic reranking stage of Hybrid Search
// with Semantic reranking (HSS). The production system uses a proprietary
// multi-lingual deep model from Bing / Microsoft Research (multi-task
// learning, Liu et al. 2019) that re-scores the fused top results; its
// final relevance score is added to the RRF score.
//
// The substitute here is a deterministic cross-scorer with the same signal
// structure a cross-encoder learns for this task: semantic affinity between
// query and chunk (embedding cosine), lexical evidence (normalized term
// overlap), and title affinity, combined through a calibrated logistic so
// the output lives in (0, 1) like a relevance probability.
//
// The logistic's weights are an atomically-published snapshot rather than
// plain fields: click feedback (see feedback.go) recalibrates them online
// with bounded steps, every publication bumps a version, and the query
// cache keys rankings on that version so a recalibration never replays a
// stale ordering.
package rerank

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"uniask/internal/textproc"
	"uniask/internal/vector"
)

// Input is one candidate to re-score.
type Input struct {
	// ID identifies the chunk.
	ID string
	// Title and Content are the chunk's retrievable text fields.
	Title   string
	Content string
	// ContentVector is the chunk's content embedding (may be nil; the
	// semantic component is then skipped).
	ContentVector vector.Vector
}

// Scored is a reranked candidate.
type Scored struct {
	ID string
	// Score is the semantic relevance score in (0, 1).
	Score float64
}

// Weights is one immutable parameter snapshot of the scoring logistic:
// the three evidence-channel weights and the bias.
type Weights struct {
	Semantic float64
	Lexical  float64
	Title    float64
	Bias     float64
}

// DefaultWeights is the pre-calibrated logistic: a strongly matching chunk
// scores ≈0.9 and an unrelated one ≈0.1. It anchors the recalibration
// envelope — online feedback may drift the weights only a bounded distance
// from this calibration.
var DefaultWeights = Weights{Semantic: 4.0, Lexical: 3.0, Title: 1.5, Bias: -3.0}

// snapshot pairs a weight set with its version so readers observe both
// atomically.
type snapshot struct {
	w       Weights
	version uint64
}

// Reranker is the simulated cross-encoder. Scoring reads one atomic weight
// snapshot; Recalibrate publishes new snapshots. Safe for concurrent use.
type Reranker struct {
	cur  atomic.Pointer[snapshot]
	base Weights // envelope anchor; immutable after New

	// mu serializes recalibrations (readers never take it).
	mu     sync.Mutex
	clicks uint64 // feedback events applied, under mu

	analyzer *textproc.Analyzer
}

// New returns a reranker with the default calibration.
func New() *Reranker {
	r := &Reranker{
		base:     DefaultWeights,
		analyzer: textproc.ItalianFull(),
	}
	r.cur.Store(&snapshot{w: DefaultWeights, version: 1})
	return r
}

// Weights returns the current parameter snapshot.
func (r *Reranker) Weights() Weights { return r.cur.Load().w }

// Version returns the current weight version. It changes exactly when a
// recalibration publishes new weights, so it keys anything (a cached
// ranking) whose validity depends on the parameters.
func (r *Reranker) Version() uint64 { return r.cur.Load().version }

// features computes the three evidence channels for one candidate against
// the query's analyzed term set.
func (r *Reranker) features(qTerms map[string]struct{}, qvec vector.Vector, in Input) (sem, lex, title float64) {
	if qvec != nil && in.ContentVector != nil {
		sem = float64(vector.Cosine(qvec, in.ContentVector))
		if sem < 0 {
			sem = 0
		}
	}
	lex = overlap(qTerms, r.analyzer.AnalyzeUnique(in.Content))
	title = overlap(qTerms, r.analyzer.AnalyzeUnique(in.Title))
	return sem, lex, title
}

// prob is the calibrated logistic over the three evidence channels.
func (w Weights) prob(sem, lex, title float64) float64 {
	z := w.Semantic*sem + w.Lexical*lex + w.Title*title + w.Bias
	return 1 / (1 + math.Exp(-z))
}

// Score re-scores a single candidate against the query (and its embedding,
// which may be nil).
func (r *Reranker) Score(query string, qvec vector.Vector, in Input) float64 {
	return r.cur.Load().w.prob(r.features(r.analyzer.AnalyzeUnique(query), qvec, in))
}

// Rerank scores every candidate exactly as Score would, analyzing the query
// once and reading one weight snapshot for the whole batch. It does not
// reorder — UniAsk adds the semantic score to the RRF score, so combination
// happens in the caller. It checks ctx before each candidate and returns
// ctx's error, and no scores, once the caller has gone.
func (r *Reranker) Rerank(ctx context.Context, query string, qvec vector.Vector, ins []Input) ([]Scored, error) {
	qTerms := r.analyzer.AnalyzeUnique(query)
	w := r.cur.Load().w
	out := make([]Scored, len(ins))
	for i, in := range ins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Scored{ID: in.ID, Score: w.prob(r.features(qTerms, qvec, in))}
	}
	return out, nil
}

// identifierWeight up-weights identifier-like query terms (error codes,
// procedure codes): a cross-encoder attends very strongly to an exact match
// on a rare identifier.
const identifierWeight = 3.0

// overlap is the weighted fraction of query terms present in the document
// term set.
func overlap(q, d map[string]struct{}) float64 {
	if len(q) == 0 {
		return 0
	}
	var n, total float64
	for t := range q {
		w := 1.0
		if strings.ContainsAny(t, "0123456789") {
			w = identifierWeight
		}
		total += w
		if _, ok := d[t]; ok {
			n += w
		}
	}
	return n / total
}
