package adapter

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/vector"
)

func randUnit(rng *rand.Rand, dim int) vector.Vector {
	v := make(vector.Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return vector.Normalize(v)
}

func TestIdentityAtInit(t *testing.T) {
	ad := New(16, 4, 1)
	rng := rand.New(rand.NewSource(2))
	q := randUnit(rng, 16)
	y := ad.Apply(q)
	// a is zero-initialized, so Apply must be the identity (up to norm).
	for i := range q {
		if math.Abs(float64(y[i]-q[i])) > 1e-5 {
			t.Fatalf("not identity at init: %v vs %v", y[i], q[i])
		}
	}
}

func TestTrainNoData(t *testing.T) {
	ad := New(8, 2, 1)
	if _, err := ad.Train(nil, TrainConfig{}); err != ErrNoTriplets {
		t.Fatalf("err = %v", err)
	}
}

// TestTrainLearnsToSuppressNoiseDirection reproduces the adapter's job: a
// fixed noise direction is mixed into every query; training must learn to
// cancel it so queries align with their positives again.
func TestTrainLearnsToSuppressNoiseDirection(t *testing.T) {
	const dim = 32
	rng := rand.New(rand.NewSource(3))
	noise := randUnit(rng, dim)

	var triplets []Triplet
	for i := 0; i < 60; i++ {
		topic := randUnit(rng, dim)
		other := randUnit(rng, dim)
		// Query = topic + strong noise component.
		q := make(vector.Vector, dim)
		for j := range q {
			q[j] = topic[j] + 1.5*noise[j]
		}
		vector.Normalize(q)
		triplets = append(triplets, Triplet{Query: q, Positive: topic, Negative: other})
	}
	ad := New(dim, 4, 7)
	before := avgMarginGap(ad, triplets)
	if _, err := ad.Train(triplets, TrainConfig{Epochs: 30, LearningRate: 0.01, Margin: 1.0, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	after := avgMarginGap(ad, triplets)
	if after <= before+0.05 {
		t.Fatalf("training did not improve margin: before %.3f after %.3f", before, after)
	}
}

// avgMarginGap is the mean cos(adapted q, pos) - cos(adapted q, neg).
func avgMarginGap(ad *Adapter, trs []Triplet) float64 {
	total := 0.0
	for _, tr := range trs {
		y := ad.Apply(tr.Query)
		total += float64(vector.Cosine(y, tr.Positive) - vector.Cosine(y, tr.Negative))
	}
	return total / float64(len(trs))
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var trs []Triplet
	for i := 0; i < 20; i++ {
		trs = append(trs, Triplet{
			Query: randUnit(rng, 16), Positive: randUnit(rng, 16), Negative: randUnit(rng, 16),
		})
	}
	run := func() vector.Vector {
		ad := New(16, 4, 11)
		ad.Train(trs, TrainConfig{Epochs: 5, Seed: 3})
		return ad.Apply(trs[0].Query)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestApplyUnitNorm(t *testing.T) {
	ad := New(16, 4, 1)
	rng := rand.New(rand.NewSource(13))
	var trs []Triplet
	for i := 0; i < 10; i++ {
		trs = append(trs, Triplet{Query: randUnit(rng, 16), Positive: randUnit(rng, 16), Negative: randUnit(rng, 16)})
	}
	ad.Train(trs, TrainConfig{Epochs: 3})
	y := ad.Apply(randUnit(rng, 16))
	if math.Abs(float64(vector.Norm(y))-1) > 1e-5 {
		t.Fatalf("adapted vector not unit: %v", vector.Norm(y))
	}
}

func TestEmbedderWrapping(t *testing.T) {
	base := embedding.NewSynth(32, nil)
	ad := New(32, 4, 1)
	e := &Embedder{Base: base, Adapter: ad}
	if e.Dim() != 32 {
		t.Fatalf("dim = %d", e.Dim())
	}
	v, err := e.EmbedCtx(context.Background(), "bonifico estero")
	if err != nil || len(v) != 32 {
		t.Fatalf("embedding len = %d, err = %v", len(v), err)
	}
	// At init, wrapping is a no-op.
	raw := base.Embed("bonifico estero")
	if vector.Cosine(v, raw) < 0.999 {
		t.Fatal("identity wrapping changed the embedding")
	}
}
