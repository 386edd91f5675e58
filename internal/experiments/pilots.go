package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"uniask/internal/core"
	"uniask/internal/experiments/loadtest"
	"uniask/internal/guardrails"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/monitor"
	"uniask/internal/vclock"
)

// ---------------------------------------------------------------------------
// §8 — pilot phases with real users.

// PhaseResult summarizes one pilot phase.
type PhaseResult struct {
	Name      string
	Questions int
	// ProperAnswers is the share of questions that got a cited answer past
	// the guardrails.
	ProperAnswers float64
	// PositiveFeedback is the share of proper answers rated positively by
	// the simulated users.
	PositiveFeedback float64
	Feedbacks        int
}

// UATResult summarizes the user-acceptance test.
type UATResult struct {
	Questions int
	// Correct is the share of answerable questions answered correctly (a
	// valid answer citing a ground-truth document).
	Correct float64
	// GuardrailsOK is the share of should-block questions (out of scope)
	// where a guardrail fired.
	GuardrailsOK float64
	// ImproperGuardrails is the share of answerable, well-retrieved
	// questions on which a guardrail fired anyway.
	ImproperGuardrails float64
}

// PilotsResult aggregates the §8 simulation.
type PilotsResult struct {
	Phase1R1, Phase1R2, Phase2 PhaseResult
	UAT                        UATResult
}

// userRates simulates a user's feedback on a valid answer: positive when
// the answer cites a ground-truth document, with stochastic noise (users
// sometimes dislike correct answers and vice versa). Determinism comes from
// a per-question hash.
func userRates(q kb.Query, resp core.Response, seed int64) bool {
	h := fnv.New64a()
	h.Write([]byte(q.Text))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	relevant := make(map[string]bool, len(q.Relevant))
	for _, id := range q.Relevant {
		relevant[id] = true
	}
	cited := false
	for _, c := range resp.Citations {
		if relevant[parentOf(c)] {
			cited = true
			break
		}
	}
	if cited {
		return rng.Float64() < 0.93 // satisfied users still grumble sometimes
	}
	// An answer grounded on a near-duplicate or related page is often still
	// useful even when it misses the expert's exact link.
	return rng.Float64() < 0.55
}

func parentOf(chunkID string) string {
	if i := strings.LastIndexByte(chunkID, '#'); i >= 0 {
		return chunkID[:i]
	}
	return chunkID
}

// runPhase asks every query and collects simulated feedback. feedbackRate
// is the share of askers who bother to fill the feedback form.
func runPhase(ctx context.Context, eng *core.Engine, name string, queries []kb.Query, feedbackRate float64, seed int64) (PhaseResult, error) {
	res := PhaseResult{Name: name}
	rng := rand.New(rand.NewSource(seed))
	proper, positive, rated := 0, 0, 0
	for _, q := range queries {
		resp, err := eng.Ask(ctx, q.Text)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		res.Questions++
		if !resp.AnswerValid {
			continue
		}
		proper++
		if rng.Float64() > feedbackRate {
			continue
		}
		res.Feedbacks++
		if len(q.Relevant) == 0 {
			continue // no ground truth: skip rating
		}
		rated++
		if userRates(q, resp, seed) {
			positive++
		}
	}
	res.ProperAnswers = ratio(proper, res.Questions)
	res.PositiveFeedback = ratio(positive, rated)
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Pilots simulates the three §8 test phases.
//
// Phase 1 (SMEs) release 1 runs with the guardrail bug the paper describes:
// an over-strict ROUGE threshold inflates the trigger rate to ~25%. Release
// 2 fixes the bug (default threshold) and the proper-answer rate recovers to
// ~90%. SMEs initially query keyword-style out of habit, so their question
// mix includes keyword queries. Phase 2 (branch users) runs with trained
// users asking natural-language questions. The UAT runs the 210-question
// mix and scores correctness and guardrail behavior. A failed build or ask
// fails the whole simulation, with the phase named in the error.
func (e *Env) Pilots(ctx context.Context) (PilotsResult, error) {
	var out PilotsResult
	seed := e.Scale.Seed

	// Phase 1 question mix: SMEs' habits -> 40% keyword-style.
	n1 := 300
	p1 := append([]kb.Query{}, e.Corpus.HumanDataset(n1*6/10, seed+500).Queries...)
	p1 = append(p1, e.Corpus.KeywordDataset(n1*4/10, seed+501).Queries...)

	// Release 1: buggy over-strict guardrail.
	buggy := core.New(core.Config{
		Lexicon:    e.Corpus.Lexicon(),
		Guardrails: guardrails.Config{RougeThreshold: 0.27},
	})
	if err := buggy.IndexCorpus(ctx, e.Corpus); err != nil {
		return PilotsResult{}, fmt.Errorf("release 1 index: %w", err)
	}
	var err error
	if out.Phase1R1, err = runPhase(ctx, buggy, "Phase 1 / release 1 (SMEs, guardrail bug)", p1, 0.5, seed+502); err != nil {
		return PilotsResult{}, err
	}
	// Release 2: fixed guardrails, same questions.
	if out.Phase1R2, err = runPhase(ctx, e.Engine, "Phase 1 / release 2 (SMEs, fixed)", p1, 0.5, seed+503); err != nil {
		return PilotsResult{}, err
	}
	// Phase 2: branch users, trained, natural-language questions, higher
	// feedback propensity (they were picked for it).
	p2 := e.Corpus.HumanDataset(400, seed+510).Queries
	if out.Phase2, err = runPhase(ctx, e.Engine, "Phase 2 (branch users)", p2, 0.9, seed+511); err != nil {
		return PilotsResult{}, err
	}
	if out.UAT, err = e.runUAT(ctx, seed+520); err != nil {
		return PilotsResult{}, err
	}
	return out, nil
}

// citesSameTopic reports whether doc id covers the same operation (entity
// and action) as any ground-truth document.
func citesSameTopic(c *kb.Corpus, id string, truth []string) bool {
	for _, t := range truth {
		if c.SameTopic(id, t) {
			return true
		}
	}
	return false
}

// runUAT executes the 210-question user-acceptance test.
func (e *Env) runUAT(ctx context.Context, seed int64) (UATResult, error) {
	ds := e.Corpus.UATDataset(210, seed)
	var res UATResult
	var answerable, correct, shouldBlock, blockedOK, wellRetrieved, improper int
	for _, q := range ds.Queries {
		resp, err := e.Engine.Ask(ctx, q.Text)
		if err != nil {
			return res, fmt.Errorf("UAT: %w", err)
		}
		res.Questions++
		relevant := make(map[string]bool, len(q.Relevant))
		for _, id := range q.Relevant {
			relevant[id] = true
		}
		if q.Kind == kb.OutOfScopeQuery {
			shouldBlock++
			if !resp.AnswerValid {
				blockedOK++
			}
			continue
		}
		answerable++
		// SMEs judged answer text, not links: an answer grounded on any
		// page about the same operation counts as correct.
		citedTruth := false
		for _, c := range resp.Citations {
			p := parentOf(c)
			if relevant[p] || citesSameTopic(e.Corpus, p, q.Relevant) {
				citedTruth = true
				break
			}
		}
		if resp.AnswerValid && citedTruth {
			correct++
		}
		// Improper guardrail: retrieval found the truth in the top-4 but a
		// guardrail still blocked the answer.
		retrievedTruth := false
		for i, d := range resp.Documents {
			if i >= 4 {
				break
			}
			if relevant[d.ParentID] {
				retrievedTruth = true
				break
			}
		}
		if retrievedTruth {
			wellRetrieved++
			if !resp.AnswerValid {
				improper++
			}
		}
	}
	res.Correct = ratio(correct, answerable)
	res.GuardrailsOK = ratio(blockedOK, shouldBlock)
	res.ImproperGuardrails = ratio(improper, wellRetrieved)
	return res, nil
}

// String renders the pilot simulation summary.
func (r PilotsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 8: pilot phases (simulated users)\n")
	for _, p := range []PhaseResult{r.Phase1R1, r.Phase1R2, r.Phase2} {
		fmt.Fprintf(&b, "  %-44s %4d questions, %4d feedbacks: proper answers %5.1f%%, positive %5.1f%%\n",
			p.Name, p.Questions, p.Feedbacks, 100*p.ProperAnswers, 100*p.PositiveFeedback)
	}
	fmt.Fprintf(&b, "  UAT (%d questions): correct %5.1f%%, guardrails ok %5.1f%%, improper guardrails %4.1f%%\n",
		r.UAT.Questions, 100*r.UAT.Correct, 100*r.UAT.GuardrailsOK, 100*r.UAT.ImproperGuardrails)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 2 — LLM-service load test.

// Figure2Result is the load-test report plus the monitor the requests
// reported into: its stage table carries each llm call's count, rejections
// and wall-clock latency.
type Figure2Result struct {
	loadtest.Report
	Monitor monitor.Dashboard
}

// String renders the report followed by the llm stage line.
func (r Figure2Result) String() string {
	return r.Report.String() + "\n" + r.Monitor.StagesString()
}

// Figure2 runs the paper's load test: 60 virtual minutes, arrival ramp 1→3
// users/s, 7200 tokens per request, against a token quota calibrated like
// the deployment's (sized so a small share of peak-load requests is
// rejected — the paper saw 267 failures out of 7200 requests).
func Figure2() Figure2Result {
	clk := vclock.NewVirtual(time.Date(2025, 1, 1, 9, 0, 0, 0, time.UTC))
	// The quota is sized so that only the ramp's final minutes overflow:
	// the paper's test saw 267 failed queries out of 7200 (3.7%), all at
	// peak load.
	svc := llm.NewService(llm.NewSim(llm.DefaultBehavior()), llm.ServiceConfig{
		TokensPerMinute: 1_020_000,
		BurstTokens:     1_020_000,
		Clock:           clk,
	})
	m := monitor.New()
	rep := loadtest.Run(svc, clk, loadtest.Config{MaxRequests: 7200, Observer: m})
	return Figure2Result{Report: rep, Monitor: m.Snapshot()}
}

// ---------------------------------------------------------------------------
// Figure 3 — monitoring dashboard.

// Figure3 replays a slice of query traffic through the engine while
// recording monitoring metrics — including per-stage pipeline latency via
// the engine's observer hook — then returns the dashboard snapshot.
func (e *Env) Figure3(ctx context.Context) (monitor.Dashboard, error) {
	m := monitor.New()
	e.Engine.SetObserver(m)
	defer e.Engine.SetObserver(nil)
	rng := rand.New(rand.NewSource(e.Scale.Seed + 900))
	queries := e.Corpus.HumanDataset(150, e.Scale.Seed+901).Queries
	for i, q := range queries {
		user := fmt.Sprintf("user%03d", rng.Intn(40))
		start := time.Now()
		resp, err := e.Engine.Ask(ctx, q.Text)
		latency := time.Since(start)
		if err != nil {
			m.RecordQuery(user, latency, "", true)
			continue
		}
		m.RecordQuery(user, latency, resp.Guardrail.String(), false)
		// Roughly half the users leave feedback.
		if i%2 == 0 && resp.AnswerValid {
			m.RecordFeedback(userRates(q, resp, e.Scale.Seed+902))
		}
	}
	return m.Snapshot(), nil
}
