package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// The shape tests share one small environment; building it dominates the
// package's test time.
var (
	envOnce sync.Once
	testEnv *Env
	envErr  error
)

func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv, envErr = Setup(context.Background(),
			Scale{Docs: 2500, Human: 450, Keyword: 240, Seed: 1})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func TestSetupShape(t *testing.T) {
	e := env(t)
	if len(e.Corpus.Docs) != 2500 {
		t.Fatalf("docs = %d", len(e.Corpus.Docs))
	}
	if e.Engine.Index.Len() < 2500 {
		t.Fatalf("index chunks = %d", e.Engine.Index.Len())
	}
	if e.Prev.Len() != 2500 {
		t.Fatalf("baseline docs = %d", e.Prev.Len())
	}
	// 2/3 - 1/3 splits.
	if len(e.HumanVal.Queries) != 300 || len(e.HumanTest.Queries) != 150 {
		t.Fatalf("human split = %d/%d", len(e.HumanVal.Queries), len(e.HumanTest.Queries))
	}
	if len(e.KeywordVal.Queries) != 160 || len(e.KeywordTest.Queries) != 80 {
		t.Fatalf("keyword split = %d/%d", len(e.KeywordVal.Queries), len(e.KeywordTest.Queries))
	}
}

// TestSetupRefusesNoDocs: a scale without documents is an error, not a
// silent swap to DefaultScale (seed and dataset sizes included).
func TestSetupRefusesNoDocs(t *testing.T) {
	if env, err := Setup(context.Background(), Scale{Human: 10, Keyword: 10, Seed: 7}); err == nil {
		t.Fatalf("Setup without docs built %d docs at seed %d", len(env.Corpus.Docs), env.Scale.Seed)
	}
}

// TestTable1Shape checks the headline claims of Table 1: the previous
// engine serves only ~1/5 of natural-language questions while UniAsk serves
// all of them; UniAsk's recall and MRR improvements on the human dataset
// are massive; on the keyword dataset the two systems are roughly
// comparable with UniAsk slightly behind.
func TestTable1Shape(t *testing.T) {
	r := env(t).Table1()

	// UniAsk answers every query; the previous engine only a small share of
	// the human questions (paper: 19.1%) but nearly all keyword queries.
	if got := r.HumanUniAsk.AnsweredRate(); got != 1 {
		t.Errorf("UniAsk human answered = %.2f, want 1.0", got)
	}
	if got := r.HumanPrev.AnsweredRate(); got < 0.08 || got > 0.40 {
		t.Errorf("Prev human answered = %.2f, want ~0.2", got)
	}
	if got := r.KeywordPrev.AnsweredRate(); got < 0.9 {
		t.Errorf("Prev keyword answered = %.2f, want ~1.0", got)
	}

	// Human dataset: recall and MRR over all queries improve by several
	// hundred percent (paper: +464% to +715%).
	hPrev, hUni := r.HumanPrev.OverAll, r.HumanUniAsk.OverAll
	if hUni.R50 < 2*hPrev.R50 {
		t.Errorf("human r@50: prev %.3f uniask %.3f, want >2x", hPrev.R50, hUni.R50)
	}
	if hUni.MRR < 2*hPrev.MRR {
		t.Errorf("human MRR: prev %.3f uniask %.3f, want >2x", hPrev.MRR, hUni.MRR)
	}

	// Keyword dataset: near-parity, UniAsk within ~20% below on MRR (the
	// paper reports -4.1%).
	kPrev, kUni := r.KeywordPrev.OverAll, r.KeywordUniAsk.OverAll
	if kUni.MRR < 0.75*kPrev.MRR {
		t.Errorf("keyword MRR: prev %.3f uniask %.3f, UniAsk too far behind", kPrev.MRR, kUni.MRR)
	}
	if kUni.MRR > 1.25*kPrev.MRR {
		t.Errorf("keyword MRR: prev %.3f uniask %.3f, UniAsk should not dominate", kPrev.MRR, kUni.MRR)
	}
}

// TestTable2Shape checks the ablation contrasts: both single components are
// worse than hybrid on the human dataset, text-only degrades more than
// vector-only there, and vector-only degrades more than text-only on the
// keyword dataset.
func TestTable2Shape(t *testing.T) {
	r := env(t).Table2()

	if r.HumanText.MRR >= 0 {
		t.Errorf("human text-only MRR var = %+.1f%%, want negative", r.HumanText.MRR)
	}
	if r.HumanVector.MRR >= 0 {
		t.Errorf("human vector-only MRR var = %+.1f%%, want negative", r.HumanVector.MRR)
	}
	// Text loses more than vector on human questions (paraphrase gap).
	if r.HumanText.MRR >= r.HumanVector.MRR {
		t.Errorf("human: text (%+.1f%%) should lose more than vector (%+.1f%%)",
			r.HumanText.MRR, r.HumanVector.MRR)
	}
	// Vector loses more than text on keyword queries (jargon opacity).
	if r.KeywordVector.MRR >= r.KeywordText.MRR {
		t.Errorf("keyword: vector (%+.1f%%) should lose more than text (%+.1f%%)",
			r.KeywordVector.MRR, r.KeywordText.MRR)
	}
}

// TestTable3Shape checks that no query-expansion variant helps (QGA hurts
// clearly; MQ1/MQ2 are at best neutral) and title boosting is ~neutral with
// slight degradation of deep recall at extreme weights.
func TestTable3Shape(t *testing.T) {
	r := env(t).Table3()

	if r.QGA.MRR > -5 {
		t.Errorf("QGA MRR var = %+.1f%%, want clearly negative (paper ~-15%%)", r.QGA.MRR)
	}
	if r.MQ1.MRR > 3 {
		t.Errorf("MQ1 MRR var = %+.1f%%, want <= ~0", r.MQ1.MRR)
	}
	if r.MQ2.MRR > 3 {
		t.Errorf("MQ2 MRR var = %+.1f%%, want <= ~0", r.MQ2.MRR)
	}
	// Title boosting never yields a significant improvement.
	for name, m := range map[string]float64{"T5": r.T5.MRR, "T50": r.T50.MRR, "T500": r.T500.MRR} {
		if m > 5 {
			t.Errorf("%s MRR var = %+.1f%%, want ~0", name, m)
		}
	}
	// Over-boosting does not help deep recall (paper: r@50 -5%).
	if r.T500.R50 > 1 {
		t.Errorf("T500 r@50 var = %+.1f%%, want <= ~0", r.T500.R50)
	}
}

// TestTable5Shape checks the guardrail distribution: the vast majority of
// answers pass, the citation guardrail fires a few percent of the time, and
// the content filter blocks the injected profane questions.
func TestTable5Shape(t *testing.T) {
	r, err := env(t).Table5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 150 {
		t.Fatalf("total = %d", r.Total)
	}
	if rate := r.Rate(r.Generated); rate < 85 {
		t.Errorf("generated = %.1f%%, want ~94%%", rate)
	}
	if rate := r.Rate(r.Citation); rate > 10 {
		t.Errorf("citation guardrail = %.1f%%, want small", rate)
	}
	if r.ContentFilter == 0 {
		t.Error("content filter never fired on injected profanity")
	}
	sum := r.Generated + r.Citation + r.Rouge + r.Clarification + r.ContentFilter
	if sum != r.Total {
		t.Errorf("outcome counts %d != total %d", sum, r.Total)
	}
}

// TestPilotsReportsFailure: a simulation that cannot ask its questions
// returns the error instead of rows of zeros.
func TestPilotsReportsFailure(t *testing.T) {
	small, err := Setup(context.Background(), Scale{Docs: 60, Human: 20, Keyword: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := small.Pilots(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPilotsShape checks the §8 dynamics: the guardrail bug depresses
// release 1, the fix restores ~90% proper answers, positive feedback lands
// in the high-70s/80s, and the UAT blocks all out-of-scope questions.
func TestPilotsShape(t *testing.T) {
	r, err := env(t).Pilots(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Phase1R1.ProperAnswers >= r.Phase1R2.ProperAnswers {
		t.Errorf("release 1 (%.2f) should be worse than release 2 (%.2f)",
			r.Phase1R1.ProperAnswers, r.Phase1R2.ProperAnswers)
	}
	if r.Phase1R2.ProperAnswers < 0.80 {
		t.Errorf("release 2 proper answers = %.2f, want ~0.9", r.Phase1R2.ProperAnswers)
	}
	if r.Phase2.PositiveFeedback < 0.6 || r.Phase2.PositiveFeedback > 0.95 {
		t.Errorf("phase 2 positive = %.2f, want ~0.8", r.Phase2.PositiveFeedback)
	}
	if r.UAT.GuardrailsOK < 0.8 {
		t.Errorf("UAT guardrails ok = %.2f, want ~0.9+", r.UAT.GuardrailsOK)
	}
	if r.UAT.Correct < 0.5 {
		t.Errorf("UAT correct = %.2f, want high", r.UAT.Correct)
	}
	if r.UAT.ImproperGuardrails > 0.15 {
		t.Errorf("UAT improper guardrails = %.2f, want small", r.UAT.ImproperGuardrails)
	}
}

// TestFigure2Shape checks the load test: ~7200 requests, a few percent
// failures, concentrated at peak load (paper: 267/7200).
func TestFigure2Shape(t *testing.T) {
	rep := Figure2()
	if rep.TotalRequests < 7100 || rep.TotalRequests > 7300 {
		t.Fatalf("requests = %d", rep.TotalRequests)
	}
	rate := rep.FailureRate()
	if rate < 0.005 || rate > 0.10 {
		t.Errorf("failure rate = %.3f, want ~0.037", rate)
	}
	if rep.Buckets[0].Failures != 0 {
		t.Error("failures in the first bucket; should be at peak only")
	}
	if rep.Buckets[len(rep.Buckets)-1].Failures == 0 {
		t.Error("no failures at peak")
	}
}

// TestFigure3Shape checks the dashboard snapshot after replayed traffic.
func TestFigure3Shape(t *testing.T) {
	d, err := env(t).Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Queries != 150 {
		t.Fatalf("queries = %d", d.Queries)
	}
	if d.Users == 0 || d.Users > 40 {
		t.Fatalf("users = %d", d.Users)
	}
	if d.Feedbacks == 0 {
		t.Fatal("no feedback recorded")
	}
}

func TestTableRenderings(t *testing.T) {
	e := env(t)
	t1 := e.Table1().String()
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "MRR") {
		t.Errorf("table 1 rendering:\n%s", t1)
	}
	t2 := e.Table2().String()
	if !strings.Contains(t2, "Table 2") || strings.Contains(t2, "p@4") {
		t.Errorf("table 2 rendering:\n%s", t2)
	}
}

// TestPostLaunchShape checks the headline business result: UniAsk reduces
// the volume of search-failure tickets meaningfully (the paper reports
// ~20%), without eliminating the tickets caused by genuine KB gaps.
func TestPostLaunchShape(t *testing.T) {
	r, err := env(t).PostLaunch(context.Background(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reduction < 0.08 || r.Reduction > 0.45 {
		t.Errorf("ticket reduction = %.1f%%, want ~20%%", 100*r.Reduction)
	}
	// Tickets do not vanish: KB-gap queries keep generating them.
	if r.UniAsk.ExpectedTkt <= 0 {
		t.Error("UniAsk ticket volume dropped to zero; gap queries should persist")
	}
	if r.Prev.ExpectedTkt <= r.UniAsk.ExpectedTkt {
		t.Error("no reduction at all")
	}
}

// TestAdapterExperiment checks the §11 embedding-adapter machinery: the
// training loss decreases to a small value and the adapted retriever stays
// within a few percent of the baseline (the synthetic embedder leaves
// little headroom, so the expected outcome is neutrality, not a regression).
func TestAdapterExperiment(t *testing.T) {
	r, err := env(t).FutureWorkAdapter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Triplets < 100 {
		t.Fatalf("too few triplets mined: %d", r.Triplets)
	}
	if r.FinalLoss > 0.3 {
		t.Errorf("training did not converge: final loss %.3f", r.FinalLoss)
	}
	if gain := r.MRRGain(); gain < -0.10 || gain > 0.25 {
		t.Errorf("adapted MRR gain = %+.1f%%, outside the sane band", 100*gain)
	}
}

// TestKnowledgeGraphExperiment checks the §11 ontological guardrail: it
// agrees with the ROUGE guardrail on off-context answers while flagging
// few valid ones.
func TestKnowledgeGraphExperiment(t *testing.T) {
	r, err := env(t).FutureWorkKnowledgeGraph(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.GraphNodes < 50 {
		t.Fatalf("graph too small: %d", r.GraphNodes)
	}
	if r.ValidTotal == 0 {
		t.Fatal("no valid answers to compare against")
	}
	if rate := float64(r.ValidFlagged) / float64(r.ValidTotal); rate > 0.15 {
		t.Errorf("ontological guardrail flags %.0f%% of valid answers", 100*rate)
	}
	// The drift sample is tiny at test scale (a handful of rouge-blocked
	// answers); only a systematic miss is meaningful.
	if r.DriftTotal >= 3 && r.DriftCaught == 0 {
		t.Error("ontological guardrail caught none of the drift answers")
	}
}

// TestGroundednessUnreliable reproduces the §7 finding: the LLM-as-judge
// groundedness metric fails to return meaningful results for a large share
// of answers (which is why the paper deferred to user testing).
func TestGroundednessUnreliable(t *testing.T) {
	r, err := env(t).Groundedness(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Total < 50 {
		t.Fatalf("too few judged answers: %d", r.Total)
	}
	if rate := r.MeaningfulRate(); rate > 0.6 {
		t.Errorf("judge meaningful rate = %.0f%%; the paper found it unreliable", 100*rate)
	}
	if r.Meaningful > 0 && (r.MeanScore < 1 || r.MeanScore > 5) {
		t.Errorf("mean score out of range: %.1f", r.MeanScore)
	}
}
