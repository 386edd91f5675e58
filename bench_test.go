// Benchmarks regenerating every table and figure of the paper's evaluation
// plus ablation benches for the design choices called out in DESIGN.md.
// Shape numbers (MRR, rates, failure counts) are attached to each benchmark
// through b.ReportMetric, so `go test -bench . -benchmem` both times the
// pipelines and reproduces the experiment outcomes. cmd/uniask-repro prints
// the same results as formatted tables.
package uniask_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"uniask/internal/chunker"
	"uniask/internal/core"
	"uniask/internal/eval"
	"uniask/internal/experiments"
	"uniask/internal/guardrails"
	"uniask/internal/kb"
	"uniask/internal/rouge"
	"uniask/internal/search"
	"uniask/internal/vector"
)

// benchEnv is shared across benchmarks; building it (corpus generation +
// indexing) is excluded from every timing loop.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchE, benchErr = experiments.Setup(context.Background(),
			experiments.Scale{Docs: 2000, Human: 300, Keyword: 150, Seed: 1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

// ---------------------------------------------------------------------------
// Table 1 — retrieval performance, UniAsk vs the previous engine.

func BenchmarkTable1_HumanRetrieval(b *testing.B) {
	env := benchEnvironment(b)
	hss := env.UniAskRetriever(search.Options{})
	prev := env.PrevRetriever()
	var uni, old eval.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uni = eval.Evaluate(env.HumanTest, hss)
		old = eval.Evaluate(env.HumanTest, prev)
	}
	b.ReportMetric(uni.OverAll.MRR, "uniask-MRR")
	b.ReportMetric(old.OverAll.MRR, "prev-MRR")
	b.ReportMetric(100*old.AnsweredRate(), "prev-answered-%")
}

func BenchmarkTable1_KeywordRetrieval(b *testing.B) {
	env := benchEnvironment(b)
	hss := env.UniAskRetriever(search.Options{})
	prev := env.PrevRetriever()
	var uni, old eval.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uni = eval.Evaluate(env.KeywordTest, hss)
		old = eval.Evaluate(env.KeywordTest, prev)
	}
	b.ReportMetric(uni.OverAll.MRR, "uniask-MRR")
	b.ReportMetric(old.OverAll.MRR, "prev-MRR")
}

// ---------------------------------------------------------------------------
// Table 2 — hybrid-search component ablation.

func BenchmarkTable2_Ablation(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.Table2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = env.Table2()
	}
	b.ReportMetric(r.HumanText.MRR, "human-text-MRRvar-%")
	b.ReportMetric(r.HumanVector.MRR, "human-vector-MRRvar-%")
	b.ReportMetric(r.KeywordText.MRR, "kw-text-MRRvar-%")
	b.ReportMetric(r.KeywordVector.MRR, "kw-vector-MRRvar-%")
}

// ---------------------------------------------------------------------------
// Table 3 — query expansion and title boosting.

func BenchmarkTable3_QueryExpansion(b *testing.B) {
	env := benchEnvironment(b)
	hss := eval.Evaluate(env.HumanTest, env.UniAskRetriever(search.Options{}))
	var qga eval.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qga = eval.VarTable(hss, eval.Evaluate(env.HumanTest,
			env.UniAskRetriever(search.Options{Expansion: search.QGA})))
	}
	b.ReportMetric(qga.MRR, "QGA-MRRvar-%")
}

func BenchmarkTable3_TitleBoost(b *testing.B) {
	env := benchEnvironment(b)
	hss := eval.Evaluate(env.HumanTest, env.UniAskRetriever(search.Options{}))
	var t500 eval.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t500 = eval.VarTable(hss, eval.Evaluate(env.HumanTest,
			env.UniAskRetriever(search.Options{TitleBoost: 500})))
	}
	b.ReportMetric(t500.R50, "T500-r50var-%")
}

// ---------------------------------------------------------------------------
// Table 4 — index enrichment with LLM keywords (rebuilds the index, so it
// runs at reduced scale inside the loop body).

func BenchmarkTable4_KeywordEnrichment(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.Table4Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = env.Table4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.HumanKT.MRR, "HSS-KT-MRRvar-%")
	b.ReportMetric(r.HumanKTC.MRR, "HSS-KTC-MRRvar-%")
}

// ---------------------------------------------------------------------------
// Table 5 — guardrail distribution over the full RAG pipeline.

func BenchmarkTable5_Guardrails(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.Table5Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = env.Table5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rate(r.Generated), "generated-%")
	b.ReportMetric(r.Rate(r.Citation), "citation-%")
	b.ReportMetric(r.Rate(r.Rouge), "rouge-%")
}

// ---------------------------------------------------------------------------
// Figure 2 — LLM-service load test (60 virtual minutes per iteration).

func BenchmarkFigure2_LoadTest(b *testing.B) {
	var rep = experiments.Figure2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = experiments.Figure2()
	}
	b.ReportMetric(float64(rep.TotalRequests), "requests")
	b.ReportMetric(float64(rep.TotalFailures), "failures")
}

// ---------------------------------------------------------------------------
// Figure 3 — monitoring dashboard over replayed traffic.

func BenchmarkFigure3_Dashboard(b *testing.B) {
	env := benchEnvironment(b)
	d, err := env.Figure3(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err = env.Figure3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Queries), "queries")
	b.ReportMetric(float64(d.GuardrailsTriggered), "guardrails")
}

// ---------------------------------------------------------------------------
// §8 — UAT.

func BenchmarkPilot_UAT(b *testing.B) {
	env := benchEnvironment(b)
	var r experiments.PilotsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = env.Pilots(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.UAT.Correct, "uat-correct-%")
	b.ReportMetric(100*r.UAT.GuardrailsOK, "uat-guardrails-ok-%")
}

// ---------------------------------------------------------------------------
// Ablation benches for DESIGN.md §4 design choices.

// BenchmarkAblationANN verifies the paper's observation that HNSW and
// exhaustive k-NN yield similar retrieval results, and times both.
func BenchmarkAblationANN(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dim, n, k := 128, 5000, 15
	vecs := make([]vector.Vector, n)
	for i := range vecs {
		v := make(vector.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = vector.Normalize(v)
	}
	queries := make([]vector.Vector, 50)
	for i := range queries {
		v := make(vector.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		queries[i] = vector.Normalize(v)
	}
	build := func(ix vector.Index) {
		for i, v := range vecs {
			ix.Add(i, v)
		}
	}
	hnsw := vector.NewHNSW(vector.HNSWConfig{Seed: 1, EfConstruction: 80})
	exact := vector.NewExhaustive()
	build(hnsw)
	build(exact)

	// Recall parity check (outside the timed loop).
	hits, total := 0, 0
	for _, q := range queries {
		truth := map[int]bool{}
		for _, r := range exact.Search(q, k) {
			truth[r.ID] = true
		}
		for _, r := range hnsw.Search(q, k) {
			if truth[r.ID] {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)

	b.Run("hnsw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hnsw.Search(queries[i%len(queries)], k)
		}
		b.ReportMetric(recall, "recall-vs-exact")
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exact.Search(queries[i%len(queries)], k)
		}
	})
}

// BenchmarkAblationChunking compares the adopted HTML-paragraph splitter
// with the rejected recursive character splitter.
func BenchmarkAblationChunking(b *testing.B) {
	corpus := kb.Generate(kb.GenConfig{Docs: 200, Seed: 5})
	htmlSplit := &chunker.HTMLSplitter{}
	recSplit := &chunker.RecursiveSplitter{}
	b.Run("html-paragraph", func(b *testing.B) {
		b.ReportAllocs()
		chunks := 0
		for i := 0; i < b.N; i++ {
			chunks = 0
			for _, d := range corpus.Docs {
				chunks += len(htmlSplit.SplitHTML(d.HTML))
			}
		}
		b.ReportMetric(float64(chunks)/float64(len(corpus.Docs)), "chunks/doc")
	})
	b.Run("recursive-character", func(b *testing.B) {
		b.ReportAllocs()
		chunks := 0
		for i := 0; i < b.N; i++ {
			chunks = 0
			for _, d := range corpus.Docs {
				chunks += len(recSplit.Split(d.HTML))
			}
		}
		b.ReportMetric(float64(chunks)/float64(len(corpus.Docs)), "chunks/doc")
	})
}

// BenchmarkAblationVectorK reproduces the §7 K sweep that selected K=15.
func BenchmarkAblationVectorK(b *testing.B) {
	env := benchEnvironment(b)
	for _, k := range []int{3, 15, 50} {
		k := k
		b.Run(map[int]string{3: "K3", 15: "K15", 50: "K50"}[k], func(b *testing.B) {
			retr := env.UniAskRetriever(search.Options{VectorK: k})
			var s eval.Summary
			for i := 0; i < b.N; i++ {
				s = eval.Evaluate(env.HumanVal, retr)
			}
			b.ReportMetric(s.OverAll.MRR, "MRR")
		})
	}
}

// BenchmarkAblationRRFC sweeps the RRF constant around the deployed c=60.
func BenchmarkAblationRRFC(b *testing.B) {
	env := benchEnvironment(b)
	for _, c := range []int{10, 60, 240} {
		c := c
		b.Run(map[int]string{10: "c10", 60: "c60", 240: "c240"}[c], func(b *testing.B) {
			retr := env.UniAskRetriever(search.Options{RRFC: c})
			var s eval.Summary
			for i := 0; i < b.N; i++ {
				s = eval.Evaluate(env.HumanVal, retr)
			}
			b.ReportMetric(s.OverAll.MRR, "MRR")
		})
	}
}

// BenchmarkAblationGuardrailThreshold shows the block-rate consequences of
// the ROUGE-L threshold (deployed: 0.15; the release-1 bug behaved like a
// much higher one).
func BenchmarkAblationGuardrailThreshold(b *testing.B) {
	env := benchEnvironment(b)
	answers := make([]string, 0, 50)
	contexts := make([][]string, 0, 50)
	for _, q := range env.HumanTest.Queries[:50] {
		resp, err := env.Engine.Ask(context.Background(), q.Text)
		if err != nil {
			b.Fatal(err)
		}
		answers = append(answers, resp.GeneratedAnswer)
		var ctxs []string
		for i, d := range resp.Documents {
			if i == 4 {
				break
			}
			ctxs = append(ctxs, d.Content)
		}
		contexts = append(contexts, ctxs)
	}
	for _, th := range []float64{0.15, 0.30, 0.45} {
		th := th
		name := map[float64]string{0.15: "t015", 0.30: "t030", 0.45: "t045"}[th]
		b.Run(name, func(b *testing.B) {
			blocked := 0
			for i := 0; i < b.N; i++ {
				blocked = 0
				for j, a := range answers {
					if rouge.MaxLAgainst(a, contexts[j]) < th {
						blocked++
					}
				}
			}
			b.ReportMetric(100*float64(blocked)/float64(len(answers)), "blocked-%")
		})
	}
	_ = guardrails.DefaultRougeThreshold
}

// BenchmarkAskEndToEnd times the full query flow (retrieve + generate +
// guardrails) per question.
func BenchmarkAskEndToEnd(b *testing.B) {
	env := benchEnvironment(b)
	qs := env.HumanTest.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Engine.Ask(context.Background(), qs[i%len(qs)].Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexingThroughput times the ingestion+indexing pipeline.
func BenchmarkIndexingThroughput(b *testing.B) {
	corpus := kb.Generate(kb.GenConfig{Docs: 300, Seed: 17})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := experiments.Setup(context.Background(),
			experiments.Scale{Docs: 300, Human: 10, Keyword: 10, Seed: int64(i + 100)})
		if err != nil {
			b.Fatal(err)
		}
		_ = env
	}
	b.ReportMetric(float64(len(corpus.Docs)), "docs")
}

// BenchmarkAblationChunkSize sweeps the 512-token chunk-size choice.
func BenchmarkAblationChunkSize(b *testing.B) {
	corpus := kb.Generate(kb.GenConfig{Docs: 150, Seed: 23})
	for _, size := range []int{128, 512, 1024} {
		size := size
		name := map[int]string{128: "t128", 512: "t512", 1024: "t1024"}[size]
		b.Run(name, func(b *testing.B) {
			sp := &chunker.HTMLSplitter{TargetTokens: size}
			chunks, tokens := 0, 0
			for i := 0; i < b.N; i++ {
				chunks, tokens = 0, 0
				for _, d := range corpus.Docs {
					for _, c := range sp.SplitHTML(d.HTML) {
						chunks++
						tokens += c.Tokens
					}
				}
			}
			b.ReportMetric(float64(chunks)/float64(len(corpus.Docs)), "chunks/doc")
			if chunks > 0 {
				b.ReportMetric(float64(tokens)/float64(chunks), "tokens/chunk")
			}
		})
	}
}

// BenchmarkIndexPersistence times index save/load against a fresh rebuild.
func BenchmarkIndexPersistence(b *testing.B) {
	env := benchEnvironment(b)
	var buf bytes.Buffer
	if err := env.Engine.Index.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := env.Engine.Index.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		eng := core.New(core.Config{Lexicon: env.Corpus.Lexicon()})
		for i := 0; i < b.N; i++ {
			if err := eng.LoadIndex(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data))/1e6, "MB")
	})
}
