package search

// Every query expansion runs the same retrieval plan (expand → embed → legs
// → fuse → rerank). This file pins the plan's observable outcome — ranked
// results, degradation report and error text — across every expansion,
// retrieval mode and dependency fault, so a refactor of the plan cannot
// silently change what any Table-3 variant returns.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"uniask/internal/llm"
)

// downLLM fails every completion, the way an unreachable LLM service would.
type downLLM struct{}

func (downLLM) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, errors.New("llm service down")
}

var planQueries = []string{
	"bloccare la carta di credito",
	"sospendere la tessera",
	"come aprire un conto corrente",
	"ERR-2002 bonifico",
	"verificare il mutuo prima casa",
	"",
}

// expansionRankingsDigest is the SHA-256 of the rankings of every cell of
// the matrix below — chunk ids in order, degradation report and error text
// — except vector-only MQ1/MQ2 with the embedder down, as computed by the
// per-expansion search functions the single plan replaced.
const expansionRankingsDigest = "7b6cf2fbaec4e9e659b2f560d4edf57c808e976b7aea3aa076850c13f97a9f43"

// expansionPlansDigest is the SHA-256 of the same cells with every result
// field, scores included. The reranker reads each chunk's unit-length
// content vector from the vector index's arena, so scores carry the
// arena's bits; rankings are pinned above, scores here. The digest hashes
// the results' Go syntax, so it also moves with Result's field list.
const expansionPlansDigest = "ae6917ccb556d11bacf9f256f1fa958098388bf9922fa4307999da3c97063a3a"

func TestExpansionPlansPinned(t *testing.T) {
	expansions := []struct {
		name string
		x    Expansion
	}{{"None", NoExpansion}, {"QGA", QGA}, {"MQ1", MQ1}, {"MQ2", MQ2}}
	modes := []struct {
		name string
		m    Mode
	}{{"Hybrid", Hybrid}, {"TextOnly", TextOnly}, {"VectorOnly", VectorOnly}}
	faults := []string{"healthy", "embedder-down", "llm-down"}

	base := buildLargeSearcher(t)
	searcher := func(fault string) *Searcher {
		s := *base
		switch fault {
		case "embedder-down":
			s.Embedder = brokenEmbedder{dim: 64}
		case "llm-down":
			s.LLM = downLLM{}
		}
		return &s
	}
	// vectorOnlyMQDown marks the cells the digest leaves out: vector-only
	// MQ1/MQ2 with no surviving query vector must error like every other
	// expansion, which the subtest below asserts.
	vectorOnlyMQDown := func(fault string, x Expansion, m Mode) bool {
		return fault == "embedder-down" && m == VectorOnly && (x == MQ1 || x == MQ2)
	}

	h, rankings := sha256.New(), sha256.New()
	for _, fault := range faults {
		s := searcher(fault)
		for _, x := range expansions {
			for _, m := range modes {
				if vectorOnlyMQDown(fault, x.x, m.m) {
					continue
				}
				for _, q := range planQueries {
					hits, err := s.SearchDegraded(context.Background(), q, Options{Mode: m.m, Expansion: x.x})
					res, deg := hits.Results, hits.Degradation
					errText := ""
					if err != nil {
						errText = err.Error()
					}
					fmt.Fprintf(h, "%s/%s/%s/%q\n%#v\n%#v\n%q\n", fault, x.name, m.name, q, res, deg, errText)
					ids := make([]string, len(res))
					for i, r := range res {
						ids[i] = r.ChunkID
					}
					fmt.Fprintf(rankings, "%s/%s/%s/%q\n%q\n%#v\n%q\n", fault, x.name, m.name, q, ids, deg, errText)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", rankings.Sum(nil)); got != expansionRankingsDigest {
		t.Errorf("expansion plan rankings changed: digest %s, want %s", got, expansionRankingsDigest)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != expansionPlansDigest {
		t.Errorf("expansion plan outcomes changed: digest %s, want %s", got, expansionPlansDigest)
	}

	t.Run("VectorOnlyMQEmbedderDown", func(t *testing.T) {
		s := searcher("embedder-down")
		for _, x := range []Expansion{MQ1, MQ2} {
			for _, q := range planQueries {
				hits, err := s.SearchDegraded(context.Background(), q, Options{Mode: VectorOnly, Expansion: x})
				res := hits.Results
				if err == nil || !strings.Contains(err.Error(), "embedding service down") {
					t.Fatalf("expansion %d, query %q: err = %v, want the embedding failure", x, q, err)
				}
				if res != nil {
					t.Fatalf("expansion %d, query %q: failed search returned %d results", x, q, len(res))
				}
			}
		}
	})
}
