package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"uniask/internal/eval"
	"uniask/internal/experiments/adapter"
	"uniask/internal/experiments/kgraph"
	"uniask/internal/guardrails"
	"uniask/internal/search"
)

// ---------------------------------------------------------------------------
// §11 future work — embedding adapters.

// AdapterResult compares retrieval before and after training a query-side
// embedding adapter on the validation dataset.
type AdapterResult struct {
	Before, After eval.Summary
	FinalLoss     float64
	Triplets      int
}

// MRRGain is the relative MRR improvement of the adapted retriever.
func (r AdapterResult) MRRGain() float64 {
	if r.Before.OverAll.MRR == 0 {
		return 0
	}
	return r.After.OverAll.MRR/r.Before.OverAll.MRR - 1
}

// String renders the comparison.
func (r AdapterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Future work (§11): query-side embedding adapter\n")
	fmt.Fprintf(&b, "  (on the synthetic substrate the base embedder is already calibrated\n")
	fmt.Fprintf(&b, "   to the concept lexicon, so the adapter's headroom is marginal)\n")
	fmt.Fprintf(&b, "  trained on %d validation triplets, final loss %.3f\n", r.Triplets, r.FinalLoss)
	fmt.Fprintf(&b, "  human test  MRR: %.4f -> %.4f (%+.1f%%)\n",
		r.Before.OverAll.MRR, r.After.OverAll.MRR, 100*r.MRRGain())
	fmt.Fprintf(&b, "  human test  r@4: %.4f -> %.4f\n", r.Before.OverAll.R4, r.After.OverAll.R4)
	fmt.Fprintf(&b, "  human test hit@4: %.4f -> %.4f\n", r.Before.OverAll.Hit4, r.After.OverAll.Hit4)
	return b.String()
}

// FutureWorkAdapter mines (query, positive chunk, hard negative chunk)
// triplets from the human validation set, trains a low-rank adapter on
// query embeddings, and evaluates vector-only retrieval on the human test
// set with and without the adapter. Vector-only retrieval isolates the
// embedding contribution the adapter is supposed to improve.
func (e *Env) FutureWorkAdapter(ctx context.Context) (AdapterResult, error) {
	res := AdapterResult{}

	// Mine triplets from the validation split. Negatives are random
	// off-topic chunks: with facet-level ground truth the hardest negatives
	// share the query's very concepts, and training against them teaches
	// the adapter anti-topic directions that destroy generalization.
	rng := rand.New(rand.NewSource(e.Scale.Seed + 41))
	var triplets []adapter.Triplet
	for _, q := range e.HumanVal.Queries {
		relevant := make(map[string]bool, len(q.Relevant))
		for _, id := range q.Relevant {
			relevant[id] = true
		}
		qvec := e.Engine.Embedder.Embed(q.Text)
		// Positive: the content vector of the first chunk of a relevant doc.
		pos, ok := e.Engine.Index.DocByID(q.Relevant[0] + "#0")
		if !ok {
			continue
		}
		// Negative: a random chunk from an unrelated document.
		var negVec = pos.Vectors["contentVector"]
		for tries := 0; tries < 10; tries++ {
			doc := e.Engine.Index.Doc(rng.Intn(e.Engine.Index.Len()))
			if !relevant[doc.ParentID] {
				negVec = doc.Vectors["contentVector"]
				break
			}
		}
		triplets = append(triplets, adapter.Triplet{
			Query:    qvec,
			Positive: pos.Vectors["contentVector"],
			Negative: negVec,
		})
	}
	res.Triplets = len(triplets)

	ad := adapter.New(e.Engine.Embedder.Dim(), 4, e.Scale.Seed+42)
	loss, err := ad.Train(triplets, adapter.TrainConfig{Epochs: 30, Margin: 0.5, Seed: e.Scale.Seed + 43})
	if err != nil {
		return res, err
	}
	res.FinalLoss = loss

	opts := search.Options{Mode: search.VectorOnly, DisableSemanticRerank: true}
	res.Before = eval.Evaluate(e.HumanTest, e.UniAskRetriever(opts))

	adapted := &search.Searcher{
		Index:    e.Engine.Index,
		Embedder: &adapter.Embedder{Base: e.Engine.Embedder, Adapter: ad},
		Reranker: nil,
		LLM:      e.Engine.Client,
	}
	res.After = eval.Evaluate(e.HumanTest, func(query string) []string {
		results, err := adapted.Search(ctx, query, opts)
		if err != nil {
			return nil
		}
		return search.ParentRanking(results)
	})
	return res, nil
}

// ---------------------------------------------------------------------------
// §11 future work — knowledge graph for ontological answer validation.

// OntologyResult compares the knowledge-graph guardrail with the deployed
// ROUGE-L guardrail on the human test set.
type OntologyResult struct {
	// GraphNodes is the size of the concept graph.
	GraphNodes int
	// ValidTotal / ValidFlagged: answers that passed the deployed
	// guardrails, and how many of them the ontological check would flag
	// (false positives of the new guardrail).
	ValidTotal, ValidFlagged int
	// DriftTotal / DriftCaught: answers the ROUGE guardrail blocked as
	// off-context, and how many the ontological check also catches
	// (agreement on true hallucinations).
	DriftTotal, DriftCaught int
}

// String renders the comparison.
func (r OntologyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Future work (§11): knowledge-graph ontological guardrail\n")
	fmt.Fprintf(&b, "  concept graph: %d nodes\n", r.GraphNodes)
	fmt.Fprintf(&b, "  off-context (rouge-blocked) answers also caught: %d/%d\n", r.DriftCaught, r.DriftTotal)
	fmt.Fprintf(&b, "  valid answers wrongly flagged:                   %d/%d\n", r.ValidFlagged, r.ValidTotal)
	return b.String()
}

// FutureWorkKnowledgeGraph builds the concept graph from the corpus and
// evaluates the ontological guardrail against the deployed pipeline's
// verdicts on the human test set.
func (e *Env) FutureWorkKnowledgeGraph(ctx context.Context) (OntologyResult, error) {
	var docs []string
	for _, d := range e.Corpus.Docs {
		text := d.Title
		for _, p := range d.Paragraphs {
			text += " " + p
		}
		docs = append(docs, text)
	}
	g := kgraph.Build(docs, e.Corpus.Lexicon())
	g.StrictPrefixes = []string{"ent", "jar"} // the corpus' subject classes
	res := OntologyResult{GraphNodes: g.Nodes()}

	for _, q := range e.HumanTest.Queries {
		resp, err := e.Engine.Ask(ctx, q.Text)
		if err != nil {
			return res, err
		}
		verdict := g.CheckAnswer(q.Text, resp.GeneratedAnswer)
		switch {
		case resp.AnswerValid:
			res.ValidTotal++
			if !verdict.OnTopic {
				res.ValidFlagged++
			}
		case resp.Guardrail == guardrails.Rouge:
			res.DriftTotal++
			if !verdict.OnTopic {
				res.DriftCaught++
			}
		}
	}
	return res, nil
}
