package rerank

import (
	"context"
	"errors"
	"math"
	"testing"

	"uniask/internal/chunker"
	"uniask/internal/embedding"
	"uniask/internal/htmlx"
	"uniask/internal/kb"
	"uniask/internal/vector"
)

func TestScoreBounds(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	q := "come bloccare la carta di credito"
	s := r.Score(q, emb.Embed(q), Input{
		Title: "Blocco carta", Content: "Per bloccare la carta chiamare il numero verde.",
		ContentVector: emb.Embed("Per bloccare la carta chiamare il numero verde."),
	})
	if s <= 0 || s >= 1 {
		t.Fatalf("score out of (0,1): %v", s)
	}
}

func TestRelevantOutscoresIrrelevant(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	q := "come bloccare la carta di credito"
	qv := emb.Embed(q)
	rel := Input{Title: "Blocco carta di credito",
		Content:       "Per bloccare la carta di credito chiamare il numero verde dedicato.",
		ContentVector: emb.Embed("Per bloccare la carta di credito chiamare il numero verde dedicato.")}
	irr := Input{Title: "Mutuo prima casa",
		Content:       "Il mutuo prima casa offre un tasso agevolato ai giovani.",
		ContentVector: emb.Embed("Il mutuo prima casa offre un tasso agevolato ai giovani.")}
	sr := r.Score(q, qv, rel)
	si := r.Score(q, qv, irr)
	if sr <= si {
		t.Fatalf("relevant %.3f <= irrelevant %.3f", sr, si)
	}
	if sr < 0.6 {
		t.Fatalf("strong match scored low: %.3f", sr)
	}
	if si > 0.4 {
		t.Fatalf("non-match scored high: %.3f", si)
	}
}

func TestTitleSignalContributes(t *testing.T) {
	r := New()
	q := "blocco carta"
	withTitle := r.Score(q, nil, Input{Title: "Blocco carta", Content: "testo generico"})
	without := r.Score(q, nil, Input{Title: "Altro argomento", Content: "testo generico"})
	if withTitle <= without {
		t.Fatalf("title match ignored: %.3f <= %.3f", withTitle, without)
	}
}

func TestNilVectorSkipsSemantic(t *testing.T) {
	r := New()
	// Must not panic with nil vectors and still produce a sane score.
	s := r.Score("carta", nil, Input{Title: "carta", Content: "carta di credito"})
	if s <= 0 || s >= 1 {
		t.Fatalf("score = %v", s)
	}
}

func TestRerankPreservesOrderAndIDs(t *testing.T) {
	r := New()
	ins := []Input{{Content: "x"}, {Content: "y"}}
	out, err := r.Rerank(context.Background(), "x", nil, ins)
	if err != nil || len(out) != 2 || out[0] != r.Score("x", nil, ins[0]) || out[1] != r.Score("x", nil, ins[1]) {
		t.Fatalf("Rerank reordered or lost candidates: %v (err %v)", out, err)
	}
}

func TestEmptyQuery(t *testing.T) {
	r := New()
	s := r.Score("", nil, Input{Title: "t", Content: "c"})
	if s <= 0 || s >= 1 {
		t.Fatalf("score = %v", s)
	}
}

func TestDeterministic(t *testing.T) {
	r := New()
	emb := embedding.NewSynth(64, nil)
	in := Input{Title: "Blocco carta", Content: "Per bloccare la carta",
		ContentVector: emb.Embed("Per bloccare la carta")}
	q := "bloccare carta"
	qv := emb.Embed(q)
	if r.Score(q, qv, in) != r.Score(q, qv, in) {
		t.Fatal("nondeterministic score")
	}
}

// corpusCandidates chunks pages of the 600-page benchmark corpus into n
// rerank inputs with content embeddings, and returns human questions
// about the same corpus with the embedder.
func corpusCandidates(tb testing.TB, n int) ([]Input, []string, *embedding.Synth) {
	tb.Helper()
	corpus := kb.Generate(kb.GenConfig{Docs: 600, Seed: 1})
	emb := embedding.NewSynth(64, corpus.Lexicon())
	var ins []Input
	splitter := &chunker.HTMLSplitter{}
	for _, d := range corpus.Docs {
		for _, c := range splitter.SplitDocument(htmlx.Extract(d.HTML)) {
			if len(ins) == n {
				break
			}
			ins = append(ins, Input{Title: d.Title, Content: c.Text, ContentVector: emb.Embed(c.Text)})
		}
	}
	var queries []string
	for _, q := range corpus.HumanDataset(20, 7).Queries {
		queries = append(queries, q.Text)
	}
	return ins, queries, emb
}

// TestRerankEqualsScoreLoop proves the batch pass (query analyzed once,
// one weight snapshot) and the single-candidate API agree bit for bit.
func TestRerankEqualsScoreLoop(t *testing.T) {
	r := New()
	ins, queries, emb := corpusCandidates(t, 50)
	for _, q := range queries {
		for _, qv := range []vector.Vector{emb.Embed(q), nil} {
			got, err := r.Rerank(context.Background(), q, qv, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				want := r.Score(q, qv, in)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%q candidate %d: Rerank %v, Score %v", q, i, got[i], want)
				}
			}
		}
	}
}

func TestRerankStopsOnCancel(t *testing.T) {
	r := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := r.Rerank(ctx, "carta", nil, []Input{{Content: "carta"}})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("out=%v err=%v, want nil and context.Canceled", out, err)
	}
}

// BenchmarkRerank scores one ask's worth of fused candidates (45 chunks of
// the benchmark corpus) against one question.
func BenchmarkRerank(b *testing.B) {
	r := New()
	ins, queries, emb := corpusCandidates(b, 45)
	qv := emb.Embed(queries[0])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Rerank(ctx, queries[i%len(queries)], qv, ins); err != nil {
			b.Fatal(err)
		}
	}
}
