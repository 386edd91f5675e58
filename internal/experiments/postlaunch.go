package experiments

import (
	"context"

	"uniask/internal/experiments/tickets"
	"uniask/internal/kb"
)

// StreamMix describes the production query stream used for the post-launch
// ticket analysis. Most employees keep their 20-year keyword habit right
// after launch (§8's user-education problem); a minority adopts
// natural-language questions; and a substantial share of ticket-prone
// queries concerns information that is simply absent from the knowledge
// base — no search system can rescue those, which is why the overall
// reduction lands around 20% rather than the 5x retrieval improvement of
// Table 1.
type StreamMix struct {
	Keyword float64 // keyword-habit queries (answer is in the KB)
	Human   float64 // natural-language questions (answer is in the KB)
	Gap     float64 // questions whose answer is not in the KB at all
}

// DefaultStreamMix is the calibrated post-launch stream.
func DefaultStreamMix() StreamMix {
	return StreamMix{Keyword: 0.65, Human: 0.05, Gap: 0.30}
}

// PostLaunchResult holds the ticket tallies of both systems.
type PostLaunchResult struct {
	Prev, UniAsk *tickets.Tally
	Reduction    float64
}

// String renders the comparison report.
func (r PostLaunchResult) String() string { return tickets.Report(r.Prev, r.UniAsk) }

// PostLaunch replays an identical query stream through the previous engine
// and through UniAsk, classifies each interaction from the employee's point
// of view, and estimates the relative reduction in search-failure tickets.
func (e *Env) PostLaunch(ctx context.Context, totalQueries int) (PostLaunchResult, error) {
	if totalQueries <= 0 {
		totalQueries = 600
	}
	mix := DefaultStreamMix()
	seed := e.Scale.Seed + 700

	nKw := int(mix.Keyword * float64(totalQueries))
	nHu := int(mix.Human * float64(totalQueries))
	nGap := totalQueries - nKw - nHu

	var stream []kb.Query
	stream = append(stream, e.Corpus.KeywordDataset(nKw, seed+1).Queries...)
	stream = append(stream, e.Corpus.HumanDataset(nHu, seed+2).Queries...)
	stream = append(stream, e.Corpus.OutOfScopeDataset(nGap, seed+3).Queries...)

	prop := tickets.DefaultPropensities()
	prev := tickets.NewTally("previous")
	uni := tickets.NewTally("uniask")

	for _, q := range stream {
		relevant := make(map[string]bool, len(q.Relevant))
		for _, id := range q.Relevant {
			relevant[id] = true
		}

		// Previous engine: a ranked document list or nothing.
		var prevIDs []string
		for _, r := range e.Prev.Search(q.Text, 50) {
			prevIDs = append(prevIDs, r.DocID)
		}
		prev.Record(q.Text, classifyDocList(relevant, prevIDs, false), prop, seed+10)

		// UniAsk: generated answer plus the document list.
		resp, err := e.Engine.Ask(ctx, q.Text)
		if err != nil {
			return PostLaunchResult{}, err
		}
		var parents []string
		seen := map[string]bool{}
		for _, d := range resp.Documents {
			if !seen[d.ParentID] {
				seen[d.ParentID] = true
				parents = append(parents, d.ParentID)
			}
		}
		answered := false
		if resp.AnswerValid {
			for _, c := range resp.Citations {
				if relevant[parentOf(c)] {
					answered = true
					break
				}
			}
		}
		uni.Record(q.Text, classifyDocList(relevant, parents, answered), prop, seed+11)
	}
	return PostLaunchResult{Prev: prev, UniAsk: uni, Reduction: tickets.Reduction(prev, uni)}, nil
}

// classifyDocList maps a retrieval outcome to the employee's experience:
// answeredWell (a valid grounded answer), docs-only (a relevant document
// visible in the top 10), irrelevant (results, none relevant), or nothing.
func classifyDocList(relevant map[string]bool, ranked []string, answeredWell bool) tickets.Outcome {
	if answeredWell {
		return tickets.AnsweredWell
	}
	if len(ranked) == 0 {
		return tickets.Nothing
	}
	for i, id := range ranked {
		if i >= 10 {
			break
		}
		if relevant[id] {
			return tickets.DocsOnly
		}
	}
	return tickets.Irrelevant
}
