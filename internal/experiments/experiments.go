// Package experiments regenerates every table and figure of the paper's
// evaluation (§7-§9) on the synthetic substrate: Table 1 (UniAsk vs the
// previous engine), Table 2 (hybrid-search ablation), Table 3 (query
// expansion and title boosting), Table 4 (keyword enrichment), Table 5
// (guardrail distribution), the pilot phases of §8, the Figure 2 load test
// and the Figure 3 monitoring snapshot. cmd/uniask-repro and the root
// benchmark suite are thin wrappers over this package.
//
// The packages beneath it serve only these experiments: baseline (the
// previous exact-keyword engine of Table 1), tickets (the post-launch
// ticket model), loadtest (the Figure 2 arrival simulator), and adapter
// and kgraph (the §11 future-work prototypes).
package experiments

import (
	"context"
	"fmt"
	"strings"

	"uniask/internal/core"
	"uniask/internal/eval"
	"uniask/internal/experiments/baseline"
	"uniask/internal/kb"
	"uniask/internal/search"
)

// Scale sizes an experiment run. The paper scale is Docs=59308, Human=2700,
// Keyword=800; the default is roughly one tenth so `go test` stays fast.
type Scale struct {
	Docs    int
	Human   int
	Keyword int
	Seed    int64
}

// DefaultScale is the fast configuration used by tests and benches.
var DefaultScale = Scale{Docs: 6000, Human: 600, Keyword: 300, Seed: 1}

// Env is a fully prepared experimental environment: corpus, UniAsk engine,
// previous-engine baseline, and the validation/test splits of both query
// datasets.
type Env struct {
	Scale  Scale
	Corpus *kb.Corpus
	Engine *core.Engine
	Prev   *baseline.Engine

	HumanVal, HumanTest     kb.Dataset
	KeywordVal, KeywordTest kb.Dataset
}

// Setup generates the corpus, indexes it into a UniAsk engine and the
// baseline engine, and builds the query datasets with their 2/3-1/3 splits.
func Setup(ctx context.Context, s Scale) (*Env, error) {
	if s.Docs <= 0 {
		return nil, fmt.Errorf("experiments: a scale needs at least one document, got %d", s.Docs)
	}
	corpus := kb.Generate(kb.GenConfig{Docs: s.Docs, Seed: s.Seed})
	engine, err := core.BuildFromCorpus(ctx, corpus, core.Config{})
	if err != nil {
		return nil, err
	}
	prev := baseline.New()
	for _, d := range corpus.Docs {
		prev.Add(d.ID, d.Title+"\n"+strings.Join(d.Paragraphs, "\n"))
	}
	env := &Env{Scale: s, Corpus: corpus, Engine: engine, Prev: prev}
	human := corpus.HumanDataset(s.Human, s.Seed+100)
	keyword := corpus.KeywordDataset(s.Keyword, s.Seed+200)
	env.HumanVal, env.HumanTest = human.Split(s.Seed + 300)
	env.KeywordVal, env.KeywordTest = keyword.Split(s.Seed + 400)
	return env, nil
}

// UniAskRetriever returns the engine's document-level retriever with the
// given options.
func (e *Env) UniAskRetriever(opts search.Options) eval.Retriever {
	return eval.Retriever(e.Engine.Retriever(context.Background(), opts))
}

// PrevRetriever returns the previous engine as a document-level retriever.
func (e *Env) PrevRetriever() eval.Retriever {
	return func(query string) []string {
		res := e.Prev.Search(query, 50)
		out := make([]string, len(res))
		for i, r := range res {
			out[i] = r.DocID
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Table 1 — retrieval performance, UniAsk vs previous engine.

// Table1Result holds the four summaries of Table 1.
type Table1Result struct {
	HumanPrev, HumanUniAsk     eval.Summary
	KeywordPrev, KeywordUniAsk eval.Summary
}

// Table1 evaluates UniAsk (deployed HSS configuration) and the previous
// engine on the human and keyword test datasets.
func (e *Env) Table1() Table1Result {
	hss := e.UniAskRetriever(search.Options{})
	prev := e.PrevRetriever()
	return Table1Result{
		HumanPrev:     eval.Evaluate(e.HumanTest, prev),
		HumanUniAsk:   eval.Evaluate(e.HumanTest, hss),
		KeywordPrev:   eval.Evaluate(e.KeywordTest, prev),
		KeywordUniAsk: eval.Evaluate(e.KeywordTest, hss),
	}
}

// String renders the result in the layout of Table 1.
func (r Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Retrieval performance of UniAsk vs previous engine (test datasets)\n")
	fmt.Fprintf(&b, "%-8s | %-28s | %-28s\n", "", "Human Test Dataset", "Keyword Test Dataset")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %8s %8s %8s\n", "Metric", "Prev.", "UniAsk", "% Var", "Prev.", "UniAsk", "% Var")
	hp, hu := r.HumanPrev.PaperConvention().Values(), r.HumanUniAsk.PaperConvention().Values()
	kp, ku := r.KeywordPrev.PaperConvention().Values(), r.KeywordUniAsk.PaperConvention().Values()
	for i, name := range eval.MetricNames {
		fmt.Fprintf(&b, "%-8s | %8.4f %8.4f %+7.1f%% | %8.4f %8.4f %+7.1f%%\n",
			name, hp[i], hu[i], eval.PercentVar(hp[i], hu[i]),
			kp[i], ku[i], eval.PercentVar(kp[i], ku[i]))
	}
	fmt.Fprintf(&b, "answered | %7.1f%% %7.1f%%          | %7.1f%% %7.1f%%\n",
		100*r.HumanPrev.AnsweredRate(), 100*r.HumanUniAsk.AnsweredRate(),
		100*r.KeywordPrev.AnsweredRate(), 100*r.KeywordUniAsk.AnsweredRate())
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 2 — ablation: text-only and vector-only vs HSS.

// Table2Result holds percentage variations vs HSS per dataset/component.
type Table2Result struct {
	HumanText, HumanVector     eval.Metrics
	KeywordText, KeywordVector eval.Metrics
	// Raw summaries for inspection.
	HumanHSS, KeywordHSS eval.Summary
}

// Table2 runs the hybrid-search component ablation. The components are
// evaluated bare — semantic reranking is an HSS add-on, not part of either
// text or vector search, so the single-component runs disable it (as the
// magnitude of the paper's Table 2 losses implies).
func (e *Env) Table2() Table2Result {
	hss := e.UniAskRetriever(search.Options{})
	text := e.UniAskRetriever(search.Options{Mode: search.TextOnly, DisableSemanticRerank: true})
	vec := e.UniAskRetriever(search.Options{Mode: search.VectorOnly, DisableSemanticRerank: true})

	hHSS := eval.Evaluate(e.HumanTest, hss)
	kHSS := eval.Evaluate(e.KeywordTest, hss)
	return Table2Result{
		HumanHSS:      hHSS,
		KeywordHSS:    kHSS,
		HumanText:     eval.VarTable(hHSS, eval.Evaluate(e.HumanTest, text)),
		HumanVector:   eval.VarTable(hHSS, eval.Evaluate(e.HumanTest, vec)),
		KeywordText:   eval.VarTable(kHSS, eval.Evaluate(e.KeywordTest, text)),
		KeywordVector: eval.VarTable(kHSS, eval.Evaluate(e.KeywordTest, vec)),
	}
}

// String renders the result in the layout of Table 2.
func (r Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Ablation on the components of Hybrid Search (%% var wrt HSS)\n")
	fmt.Fprintf(&b, "%-8s | %-21s | %-21s\n", "", "Human Test Dataset", "Keyword Test Dataset")
	fmt.Fprintf(&b, "%-8s | %10s %10s | %10s %10s\n", "Metric", "Text", "Vector", "Text", "Vector")
	ht, hv := r.HumanText.Values(), r.HumanVector.Values()
	kt, kv := r.KeywordText.Values(), r.KeywordVector.Values()
	for i, name := range eval.MetricNames {
		if name == "p@4" || name == "p@50" { // Table 2 omits p@4/p@50 rows
			continue
		}
		fmt.Fprintf(&b, "%-8s | %+9.1f%% %+9.1f%% | %+9.1f%% %+9.1f%%\n",
			name, ht[i], hv[i], kt[i], kv[i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3 — query expansion and title boosting (human test dataset).

// Table3Result holds percentage variations vs HSS for each variant.
type Table3Result struct {
	QGA, MQ1, MQ2 eval.Metrics
	T5, T50, T500 eval.Metrics
}

// Table3 runs the query-expansion and title-boost experiments.
func (e *Env) Table3() Table3Result {
	hss := eval.Evaluate(e.HumanTest, e.UniAskRetriever(search.Options{}))
	run := func(opts search.Options) eval.Metrics {
		return eval.VarTable(hss, eval.Evaluate(e.HumanTest, e.UniAskRetriever(opts)))
	}
	return Table3Result{
		QGA:  run(search.Options{Expansion: search.QGA}),
		MQ1:  run(search.Options{Expansion: search.MQ1}),
		MQ2:  run(search.Options{Expansion: search.MQ2}),
		T5:   run(search.Options{TitleBoost: 5}),
		T50:  run(search.Options{TitleBoost: 50}),
		T500: run(search.Options{TitleBoost: 500}),
	}
}

// String renders the result in the layout of Table 3.
func (r Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: (A) query expansion (B) title boosting (%% var wrt HSS, Human Test Dataset)\n")
	fmt.Fprintf(&b, "%-8s | %8s %8s %8s | %8s %8s %8s\n", "Metric", "QGA", "MQ1", "MQ2", "T5", "T50", "T500")
	cols := [][]float64{r.QGA.Values(), r.MQ1.Values(), r.MQ2.Values(), r.T5.Values(), r.T50.Values(), r.T500.Values()}
	for i, name := range eval.MetricNames {
		if name == "p@4" || name == "p@50" {
			continue
		}
		fmt.Fprintf(&b, "%-8s | %+7.1f%% %+7.1f%% %+7.1f%% | %+7.1f%% %+7.1f%% %+7.1f%%\n",
			name, cols[0][i], cols[1][i], cols[2][i], cols[3][i], cols[4][i], cols[5][i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 4 — index enrichment with LLM keywords.

// Table4Result holds percentage variations vs HSS for the enriched indexes.
type Table4Result struct {
	HumanKT, HumanKTC     eval.Metrics
	KeywordKT, KeywordKTC eval.Metrics
}

// Table4 rebuilds the index with keyword enrichment and compares HSS-KT and
// HSS-KTC against plain HSS.
func (e *Env) Table4(ctx context.Context) (Table4Result, error) {
	hssH := eval.Evaluate(e.HumanTest, e.UniAskRetriever(search.Options{}))
	hssK := eval.Evaluate(e.KeywordTest, e.UniAskRetriever(search.Options{}))

	// One enriched engine provides both variants: kwTitle and
	// kwTitleContent are separate searchable fields.
	enriched, err := core.BuildFromCorpus(ctx, e.Corpus, core.Config{
		Lexicon: e.Corpus.Lexicon(),
		Indexer: indexerEnrichedConfig(),
	})
	if err != nil {
		return Table4Result{}, err
	}
	retr := func(field string, ds kb.Dataset) eval.Summary {
		r := enriched.Retriever(context.Background(), search.Options{SearchKeywordsField: field})
		return eval.Evaluate(ds, eval.Retriever(r))
	}
	return Table4Result{
		HumanKT:    eval.VarTable(hssH, retr("kwTitle", e.HumanTest)),
		HumanKTC:   eval.VarTable(hssH, retr("kwTitleContent", e.HumanTest)),
		KeywordKT:  eval.VarTable(hssK, retr("kwTitle", e.KeywordTest)),
		KeywordKTC: eval.VarTable(hssK, retr("kwTitleContent", e.KeywordTest)),
	}, nil
}

// String renders the result in the layout of Table 4.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Enriching the index with keywords (%% var wrt HSS)\n")
	fmt.Fprintf(&b, "%-8s | %-19s | %-19s\n", "", "Human Test Dataset", "Keyword Test Dataset")
	fmt.Fprintf(&b, "%-8s | %9s %9s | %9s %9s\n", "Metric", "HSS-KT", "HSS-KTC", "HSS-KT", "HSS-KTC")
	hk, hkc := r.HumanKT.Values(), r.HumanKTC.Values()
	kk, kkc := r.KeywordKT.Values(), r.KeywordKTC.Values()
	for i, name := range eval.MetricNames {
		fmt.Fprintf(&b, "%-8s | %+8.1f%% %+8.1f%% | %+8.1f%% %+8.1f%%\n",
			name, hk[i], hkc[i], kk[i], kkc[i])
	}
	return b.String()
}
