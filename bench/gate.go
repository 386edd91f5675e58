package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"uniask/internal/eval"
	"uniask/internal/kb"
)

// The quality gate: before anything is timed, a labelled sample goes
// through /api/search on the topology under test. It yields the quality
// metric (hit@4, with MRR printed beside it) and a digest of the rankings.
// Corpus and sample are pinned, so both repeat exactly from run to run.

// gateQueries is how many human and how many keyword queries the sample
// holds. Every topology runs the same sample, so hit@4 compares across them.
const gateQueries = 100

// pinnedDigest is the ranking digest of each topology on the pinned corpus
// (pinnedDocs pages, corpusSeed). A run whose digest differs is incorrect:
// a change that is meant to leave rankings alone (every performance or
// clean-up change) did not, or a merge, routing or replication defect
// reordered results. The two differ from each other because under the
// deployed configuration every store and every shard walks its own HNSW
// graph, so a few vector legs return other neighbours. A
// change that means to alter rankings re-pins these in a change of its own.
var pinnedDigest = map[string]string{
	topoSingle:  "f4a16cd1131c176d6f423981f0378501f025aff149cfb5f017796f6d8a2bf1d8",
	topoRemote4: "c8f48d9e8ad8f0c32f6983850d3bcd137e40f8e2a9ce24eba4fab07a95981e24",
}

type gateResult struct {
	Queries int     `json:"queries"`
	HitAt4  float64 `json:"hit_at_4"`
	MRR     float64 `json:"mrr"`
	// Digest is the SHA-256 over the ordered chunk ids of every ranking.
	Digest string `json:"digest"`
}

// gateSample returns the labelled queries.
func gateSample(corpus *kb.Corpus) []kb.Query {
	human := corpus.HumanDataset(gateQueries, corpusSeed+5000).Queries
	keyword := corpus.KeywordDataset(gateQueries, corpusSeed+5001).Queries
	return append(human, keyword...)
}

// parentRanking collapses a chunk list to its distinct parents, in order.
func parentRanking(docs []doc) []string {
	seen := make(map[string]bool, len(docs))
	var out []string
	for _, d := range docs {
		if !seen[d.Parent] {
			seen[d.Parent] = true
			out = append(out, d.Parent)
		}
	}
	return out
}

// runGate sends the sample through /api/search, spread over the clients.
func runGate(ctx context.Context, clients []*apiClient, queries []kb.Query) (gateResult, error) {
	rankings := make([][]doc, len(queries))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *apiClient) {
			defer wg.Done()
			for i := ci; i < len(queries); i += len(clients) {
				docs, err := c.search(ctx, queries[i].Text)
				if err != nil {
					errs[ci] = fmt.Errorf("gate query %q: %w", queries[i].Text, err)
					return
				}
				rankings[i] = docs
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return gateResult{}, err
		}
	}
	res := gateResult{Queries: len(queries)}
	h := sha256.New()
	for i, q := range queries {
		relevant := make(map[string]bool, len(q.Relevant))
		for _, id := range q.Relevant {
			relevant[id] = true
		}
		parents := parentRanking(rankings[i])
		res.HitAt4 += eval.HitAtN(relevant, parents, 4)
		res.MRR += eval.ReciprocalRank(relevant, parents)
		ids := make([]string, len(rankings[i]))
		for j, d := range rankings[i] {
			ids[j] = d.ID
		}
		h.Write([]byte(q.Text + "\x00" + strings.Join(ids, ",") + "\n"))
	}
	res.HitAt4 /= float64(len(queries))
	res.MRR /= float64(len(queries))
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}
