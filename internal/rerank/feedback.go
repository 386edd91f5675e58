package rerank

// Click-feedback recalibration: when a user clicks one of the cited
// documents, the click is a weak relevance label — positive for the
// clicked chunk, negative for the chunks that were ranked above it and
// skipped (the classic click-skip pairs of online learning-to-rank). Each
// feedback event applies one small logistic-regression gradient step to
// the scoring weights, clamped to a pinned envelope around the factory
// calibration so no stream of adversarial or degenerate clicks can walk
// the model away from sanity. Every publication bumps the weight version,
// which the query cache keys on, so recalibration and caching compose
// without ever serving a ranking scored under weights that no longer
// exist.

import (
	"math"

	"uniask/internal/vector"
)

// Click is one recorded feedback event: the query it answered, the chunk
// the user clicked, and the chunks ranked above the click that the user
// skipped over.
type Click struct {
	// Query is the (rewritten) query text of the turn.
	Query string
	// QueryVec is the query embedding (nil degrades the semantic feature
	// to 0, exactly as in scoring).
	QueryVec vector.Vector
	// Clicked is the candidate the user opened — the positive example.
	Clicked Input
	// SkippedAbove holds the candidates ranked above the click — the
	// negative examples. May be empty (a click on the top result still
	// nudges the positive side).
	SkippedAbove []Input
}

// learnRate is the SGD step size. Small on purpose: one click should nudge
// the calibration, not rewrite it; convergence comes from volume.
const learnRate = 0.05

// driftFrac bounds each parameter to ±driftFrac·max(|base|, 1) around its
// factory value — the pinned envelope. With the default calibration the
// semantic weight may drift within [3.0, 5.0], the bias within
// [-3.75, -2.25], and so on.
const driftFrac = 0.25

// envelope returns the [lo, hi] clamp for one parameter.
func envelope(base float64) (lo, hi float64) {
	d := driftFrac * math.Max(math.Abs(base), 1)
	return base - d, base + d
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Recalibrate applies one click's bounded gradient step and publishes the
// new weights under a fresh version. Returns the published snapshot.
// Concurrent calls serialize; concurrent scoring keeps reading the previous
// snapshot until publication.
func (r *Reranker) Recalibrate(c Click) Weights {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	w := cur.w
	qTerms := r.analyzer.AnalyzeUnique(c.Query)

	step := func(in Input, label float64) {
		sem, lex, title := r.features(qTerms, c.QueryVec, in)
		p := w.prob(sem, lex, title)
		g := learnRate * (label - p)
		w.Semantic += g * sem
		w.Lexical += g * lex
		w.Title += g * title
		w.Bias += g
	}
	step(c.Clicked, 1)
	for _, in := range c.SkippedAbove {
		step(in, 0)
	}

	w.Semantic = clamp(w.Semantic, envelopeLo(r.base.Semantic), envelopeHi(r.base.Semantic))
	w.Lexical = clamp(w.Lexical, envelopeLo(r.base.Lexical), envelopeHi(r.base.Lexical))
	w.Title = clamp(w.Title, envelopeLo(r.base.Title), envelopeHi(r.base.Title))
	w.Bias = clamp(w.Bias, envelopeLo(r.base.Bias), envelopeHi(r.base.Bias))

	r.clicks++
	r.cur.Store(&snapshot{w: w, version: cur.version + 1})
	return w
}

func envelopeLo(base float64) float64 { lo, _ := envelope(base); return lo }
func envelopeHi(base float64) float64 { _, hi := envelope(base); return hi }

// Envelope reports the clamp bounds for a base parameter value — exported
// so tests pin the exact guarantee Recalibrate enforces.
func Envelope(base float64) (lo, hi float64) { return envelope(base) }

// Stats is a point-in-time view of the online recalibration, for the
// dashboard gauge.
type Stats struct {
	// Clicks counts feedback events applied since construction.
	Clicks uint64
	// Version is the current weight version.
	Version uint64
	// Weights is the current parameter snapshot.
	Weights Weights
	// Drift is the largest relative excursion from the factory calibration
	// across the four parameters, in units of the envelope half-width
	// (1.0 = a parameter is pinned at its clamp).
	Drift float64
}

// Stats reports the recalibration counters and current weights.
func (r *Reranker) Stats() Stats {
	r.mu.Lock()
	clicks := r.clicks
	r.mu.Unlock()
	cur := r.cur.Load()
	drift := 0.0
	for _, p := range [][2]float64{
		{cur.w.Semantic, r.base.Semantic},
		{cur.w.Lexical, r.base.Lexical},
		{cur.w.Title, r.base.Title},
		{cur.w.Bias, r.base.Bias},
	} {
		half := driftFrac * math.Max(math.Abs(p[1]), 1)
		if d := math.Abs(p[0]-p[1]) / half; d > drift {
			drift = d
		}
	}
	return Stats{Clicks: clicks, Version: cur.version, Weights: cur.w, Drift: drift}
}
