package rerank

import (
	"fmt"
	"sync"
	"testing"

	"uniask/internal/vector"
)

func clickFor(q string, clicked, skipped Input) Click {
	return Click{Query: q, Clicked: clicked, SkippedAbove: []Input{skipped}}
}

func TestRecalibrateMovesTowardClickedDocs(t *testing.T) {
	r := New()
	base := r.cur.Load().w
	// The clicked doc matches the query lexically, the skipped one does
	// not: repeated clicks should not decrease the lexical weight.
	clicked := Input{Title: "bonifico estero", Content: "come fare un bonifico estero dal conto"}
	skipped := Input{Title: "carta di credito", Content: "limiti della carta di credito"}
	for i := 0; i < 50; i++ {
		r.Recalibrate(clickFor("bonifico estero", clicked, skipped))
	}
	w := r.cur.Load().w
	if w.Lexical < base.Lexical {
		t.Fatalf("lexical weight moved away from the clicked signal: %v -> %v", base.Lexical, w.Lexical)
	}
	if r.Version() != 51 {
		t.Fatalf("version = %d, want 51 (initial 1 + 50 clicks)", r.Version())
	}
}

// TestRecalibrateBoundedByEnvelope pins the safety guarantee: no volume of
// feedback — adversarial, repetitive, or plain weird — can push any weight
// outside Envelope(base). Online learning from clicks must never be able to
// destroy the factory calibration.
func TestRecalibrateBoundedByEnvelope(t *testing.T) {
	r := New()
	base := DefaultWeights
	adversarial := []Click{
		// Same doc clicked and skipped across calls: contradictory signal.
		clickFor("bonifico", Input{Title: "bonifico", Content: "bonifico"}, Input{}),
		clickFor("bonifico", Input{}, Input{Title: "bonifico", Content: "bonifico"}),
		// Empty inputs: zero features, only the bias moves.
		{Query: "", Clicked: Input{}},
		// Vectors attached: the semantic feature participates.
		{
			Query: "carta", QueryVec: vector.Vector{1, 0, 0},
			Clicked:      Input{ContentVector: vector.Vector{1, 0, 0}},
			SkippedAbove: []Input{{ContentVector: vector.Vector{-1, 0, 0}}},
		},
	}
	for i := 0; i < 2000; i++ {
		r.Recalibrate(adversarial[i%len(adversarial)])
	}
	w := r.cur.Load().w
	for _, p := range []struct {
		name      string
		got, base float64
	}{
		{"semantic", w.Semantic, base.Semantic},
		{"lexical", w.Lexical, base.Lexical},
		{"title", w.Title, base.Title},
		{"bias", w.Bias, base.Bias},
	} {
		lo, hi := envelope(p.base)
		if p.got < lo || p.got > hi {
			t.Fatalf("%s = %v escaped envelope [%v, %v]", p.name, p.got, lo, hi)
		}
	}
	st := r.Stats()
	if st.Clicks != 2000 {
		t.Fatalf("clicks = %d", st.Clicks)
	}
	if st.Drift < 0 || st.Drift > 1 {
		t.Fatalf("drift = %v outside [0, 1]", st.Drift)
	}
}

// TestRecalibrateVersionGatesCachedRankings: every click bumps the version
// the query cache keys on, so a ranking computed under old weights can
// never be served as if it were computed under the new ones.
func TestRecalibrateVersionGatesCachedRankings(t *testing.T) {
	r := New()
	v0 := r.Version()
	r.Recalibrate(clickFor("q", Input{Title: "q", Content: "q"}, Input{}))
	if r.Version() != v0+1 {
		t.Fatalf("version %d -> %d, want +1 per click", v0, r.Version())
	}
}

func TestRecalibrateConcurrentWithScoring(t *testing.T) {
	// Clicks land while queries score: the atomic snapshot must keep both
	// sides consistent (run under -race in make check).
	r := New()
	in := Input{Title: "bonifico", Content: "bonifico estero"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w%2 == 0 {
					r.Recalibrate(clickFor(fmt.Sprintf("q%d", i), in, Input{}))
				} else {
					r.Score("bonifico", nil, in)
				}
			}
		}(w)
	}
	wg.Wait()
	st := r.Stats()
	if st.Clicks != 400 {
		t.Fatalf("clicks = %d, want 400", st.Clicks)
	}
}
