// Package adapter implements the embedding-adapter extension the paper
// lists as future work for the retrieval module (§11): instead of
// fine-tuning the embedding model itself — impossible with a hosted model —
// a small trainable transformation is applied to query embeddings so they
// land closer to the embeddings of their relevant documents.
//
// The adapter is the standard low-rank residual form W = I + A·B (rank r ≪
// dim), trained with SGD on a margin ranking loss over (query, positive
// chunk, negative chunk) triplets mined from the validation dataset: the
// adapted query must score higher against a relevant chunk than against a
// confusable irrelevant one. On the synthetic substrate the headroom comes
// from question-template words ("prassi", "passaggi", ...) whose vectors
// are noise directions the adapter learns to suppress.
package adapter

import (
	"context"
	"errors"
	"math/rand"

	"uniask/internal/embedding"
	"uniask/internal/vector"
)

// Adapter is a low-rank residual linear map on query embeddings.
type Adapter struct {
	dim, rank int
	// a is dim×rank, b is rank×dim; Apply(q) = normalize(q + a·(b·q)).
	a []float32
	b []float32
}

// New creates an adapter initialized near zero (so Apply starts as the
// identity map) with the given rank.
func New(dim, rank int, seed int64) *Adapter {
	rng := rand.New(rand.NewSource(seed))
	ad := &Adapter{dim: dim, rank: rank, a: make([]float32, dim*rank), b: make([]float32, rank*dim)}
	// Small random init on b, zero init on a: the residual starts at zero
	// and grows only where the loss wants it.
	for i := range ad.b {
		ad.b[i] = float32(rng.NormFloat64()) * 0.01
	}
	return ad
}

// Dim returns the embedding dimensionality the adapter operates on.
func (ad *Adapter) Dim() int { return ad.dim }

// forward computes u = B·q (rank) and y = q + A·u (dim, unnormalized).
func (ad *Adapter) forward(q vector.Vector) (u, y vector.Vector) {
	u = make(vector.Vector, ad.rank)
	for r := 0; r < ad.rank; r++ {
		var s float32
		row := ad.b[r*ad.dim : (r+1)*ad.dim]
		for i := 0; i < ad.dim; i++ {
			s += row[i] * q[i]
		}
		u[r] = s
	}
	y = make(vector.Vector, ad.dim)
	copy(y, q)
	for i := 0; i < ad.dim; i++ {
		var s float32
		row := ad.a[i*ad.rank : (i+1)*ad.rank]
		for r := 0; r < ad.rank; r++ {
			s += row[r] * u[r]
		}
		y[i] += s
	}
	return u, y
}

// Apply maps a query embedding through the adapter (unit-normalized).
func (ad *Adapter) Apply(q vector.Vector) vector.Vector {
	_, y := ad.forward(q)
	return vector.Normalize(y)
}

// Triplet is one training example: a query embedding, the embedding of a
// relevant chunk and the embedding of a confusable irrelevant chunk.
type Triplet struct {
	Query, Positive, Negative vector.Vector
}

// TrainConfig controls SGD.
type TrainConfig struct {
	// Epochs over the triplet set (default 10).
	Epochs int
	// LearningRate (default 0.01). Larger rates overshoot: the hinge flips
	// between active and inactive and the residual oscillates.
	LearningRate float64
	// Margin of the hinge loss (default 0.5). The margin must exceed the
	// typical existing score gap or the hinge never activates.
	Margin float64
	// Seed shuffles the triplets per epoch.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.Margin <= 0 {
		c.Margin = 0.5
	}
	return c
}

// ErrNoTriplets is returned when Train is called with no data.
var ErrNoTriplets = errors.New("adapter: no training triplets")

// Train fits the adapter with SGD on the margin ranking loss
// max(0, margin - y·p + y·n) where y = q + A·B·q and p, n are the
// unit-normalized positive/negative chunk embeddings. It returns the mean
// loss of the final epoch.
func (ad *Adapter) Train(triplets []Triplet, cfg TrainConfig) (float64, error) {
	if len(triplets) == 0 {
		return 0, ErrNoTriplets
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(triplets))
	for i := range order {
		order[i] = i
	}
	lr := float32(cfg.LearningRate)
	margin := float32(cfg.Margin)

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			tr := triplets[idx]
			u, y := ad.forward(tr.Query)
			norm := vector.Norm(y)
			if norm == 0 {
				continue
			}
			inv := 1 / norm
			// Scores on the normalized output ŷ = y/‖y‖ so training matches
			// what Apply produces.
			var sp, sn float32
			for i := 0; i < ad.dim; i++ {
				sp += y[i] * inv * tr.Positive[i]
				sn += y[i] * inv * tr.Negative[i]
			}
			loss := margin - sp + sn
			if loss <= 0 {
				continue
			}
			total += float64(loss)
			// dL/dŷ = n - p; backprop through the normalization:
			// dL/dy = (g - (ŷ·g)·ŷ) / ‖y‖ with g = n - p.
			g := make(vector.Vector, ad.dim)
			var yg float32
			for i := 0; i < ad.dim; i++ {
				g[i] = tr.Negative[i] - tr.Positive[i]
				yg += y[i] * inv * g[i]
			}
			dy := make(vector.Vector, ad.dim)
			for i := 0; i < ad.dim; i++ {
				dy[i] = (g[i] - yg*y[i]*inv) * inv
			}
			// Backprop into A and B.
			for i := 0; i < ad.dim; i++ {
				row := ad.a[i*ad.rank : (i+1)*ad.rank]
				for r := 0; r < ad.rank; r++ {
					row[r] -= lr * dy[i] * u[r]
				}
			}
			for r := 0; r < ad.rank; r++ {
				var du float32
				for i := 0; i < ad.dim; i++ {
					du += ad.a[i*ad.rank+r] * dy[i]
				}
				row := ad.b[r*ad.dim : (r+1)*ad.dim]
				for j := 0; j < ad.dim; j++ {
					row[j] -= lr * du * tr.Query[j]
				}
			}
		}
		lastLoss = total / float64(len(triplets))
	}
	return lastLoss, nil
}

// Embedder wraps a base embedder, adapting query embeddings. Documents are
// embedded with the base model (the index is not re-built), which is the
// whole point of an adapter.
type Embedder struct {
	Base    embedding.CtxEmbedder
	Adapter *Adapter
}

// EmbedCtx implements embedding.CtxEmbedder.
func (e *Embedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	v, err := e.Base.EmbedCtx(ctx, text)
	if err != nil {
		return nil, err
	}
	return e.Adapter.Apply(v), nil
}

// Dim implements embedding.CtxEmbedder.
func (e *Embedder) Dim() int { return e.Base.Dim() }
