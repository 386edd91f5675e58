package search

// Regression tests for graceful degradation: failures of the remote-shaped
// dependencies (embedding, LLM expansion, individual retrieval legs) shed
// work instead of aborting the query.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/fusion"
	"uniask/internal/index"
	"uniask/internal/pipeline"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// brokenEmbedder's EmbedCtx always fails, the way a down remote embedding
// API would.
type brokenEmbedder struct{ dim int }

func (b brokenEmbedder) Dim() int { return b.dim }
func (b brokenEmbedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	return nil, errors.New("embedding service down")
}

func TestEmbedErrorDegradesToTextOnly(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Embedder = brokenEmbedder{dim: 64}

	hits, err := s.SearchDegraded(context.Background(), "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatalf("hybrid search with broken embedder errored: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if !deg.VectorSkipped || !deg.Degraded() {
		t.Fatalf("degradation not reported: %+v", deg)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("BM25-only degraded results = %+v", res)
	}
	// The answer must match a genuine text-only search: same docs, and the
	// reranker ran without its semantic component.
	textOnly, err := s.Search(context.Background(), "bloccare la carta di credito", Options{Mode: TextOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(textOnly) {
		t.Fatalf("degraded hybrid returned %d results, text-only %d", len(res), len(textOnly))
	}
	for i := range res {
		if res[i].ChunkID != textOnly[i].ChunkID {
			t.Fatalf("degraded ranking diverges from text-only at %d: %s vs %s", i, res[i].ChunkID, textOnly[i].ChunkID)
		}
	}
}

func TestEmbedErrorVectorOnlyStillAborts(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Embedder = brokenEmbedder{dim: 64}
	_, err := s.SearchDegraded(context.Background(), "sospendere la tessera", Options{Mode: VectorOnly})
	if err == nil {
		t.Fatal("vector-only search with broken embedder should error: there is nothing to degrade to")
	}
}

func TestEmbedErrorDegradationObserved(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Embedder = brokenEmbedder{dim: 64}
	var shed []pipeline.StageInfo
	s.Observer = pipeline.ObserverFunc(func(info pipeline.StageInfo) {
		if info.Stage == pipeline.StageDegraded {
			shed = append(shed, info)
		}
	})
	if _, err := s.SearchDegraded(context.Background(), "carta", Options{}); err != nil {
		t.Fatal(err)
	}
	if len(shed) == 0 {
		t.Fatal("no degraded-stage report for the shed embedding")
	}
	if shed[0].Err == nil {
		t.Fatal("degraded-stage report lost the cause")
	}
}

func TestComponentFailureShedsNotAborts(t *testing.T) {
	s, _ := buildSearcher(t)
	okRanking := fusion.Ranking{"d1#0", "d1#1"}
	comps := []component{
		{kind: "text", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			return okRanking, 0, nil
		}},
		{kind: "vector:contentVector", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			return nil, 0, fmt.Errorf("shard unreachable")
		}},
	}
	rankings, deg, err := s.runComponents(context.Background(), comps)
	if err != nil {
		t.Fatalf("one failed leg aborted the fan-out: %v", err)
	}
	if deg.ComponentsShed != 1 {
		t.Fatalf("ComponentsShed = %d, want 1", deg.ComponentsShed)
	}
	if len(rankings) != 2 {
		t.Fatalf("rankings = %d, want positional slot per component", len(rankings))
	}
	if len(rankings[0]) != 2 || len(rankings[1]) != 0 {
		t.Fatalf("surviving/shed rankings = %v", rankings)
	}
}

func TestComponentPanicShedsNotCrashes(t *testing.T) {
	s, _ := buildSearcher(t)
	comps := []component{
		{kind: "text", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			return fusion.Ranking{"d1#0"}, 0, nil
		}},
		{kind: "vector:poisoned", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			panic("poisoned posting list")
		}},
	}
	rankings, deg, err := s.runComponents(context.Background(), comps)
	if err != nil {
		t.Fatalf("panicking leg aborted the fan-out: %v", err)
	}
	if deg.ComponentsShed != 1 || len(rankings[0]) != 1 {
		t.Fatalf("panic not shed: deg=%+v rankings=%v", deg, rankings)
	}
}

func TestAllComponentsFailedErrors(t *testing.T) {
	s, _ := buildSearcher(t)
	comps := []component{
		{kind: "text", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			return nil, 0, fmt.Errorf("down")
		}},
	}
	if _, _, err := s.runComponents(context.Background(), comps); err == nil {
		t.Fatal("all legs failing must error, not return an empty ranking silently")
	}
}

func TestComponentRetrySucceeds(t *testing.T) {
	s, _ := buildSearcher(t)
	calls := 0
	comps := []component{
		{kind: "text", run: func(ctx context.Context) (fusion.Ranking, int, error) {
			calls++
			if calls == 1 {
				return nil, 0, fmt.Errorf("transient")
			}
			return fusion.Ranking{"d1#0"}, 0, nil
		}},
	}
	rankings, deg, err := s.runComponents(context.Background(), comps)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (one retry)", calls)
	}
	if deg.ComponentsShed != 0 || len(rankings[0]) != 1 {
		t.Fatalf("retried leg wrongly shed: deg=%+v", deg)
	}
}

func TestDegradedResultsNotCached(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Cache = NewQueryCache(8)
	broken := brokenEmbedder{dim: 64}
	good := s.Embedder

	s.Embedder = broken
	hits, err := s.SearchDegraded(context.Background(), "bloccare la carta", Options{})
	deg := hits.Degradation
	if err != nil || !deg.Degraded() {
		t.Fatalf("degraded search: deg=%+v err=%v", deg, err)
	}

	// Dependency recovers: the same query must be recomputed at full
	// fidelity, not served degraded from the cache.
	s.Embedder = good
	hits, err = s.SearchDegraded(context.Background(), "bloccare la carta", Options{})
	if err != nil {
		t.Fatal(err)
	}
	deg = hits.Degradation
	if deg.Degraded() {
		t.Fatalf("cache pinned a degraded result: %+v", deg)
	}

	// Healthy results do cache, and replay their (empty) degradation.
	hits, err = s.SearchDegraded(context.Background(), "bloccare la carta", Options{})
	deg = hits.Degradation
	if err != nil || deg.Degraded() {
		t.Fatalf("cached healthy result: deg=%+v err=%v", deg, err)
	}
	if st := s.Cache.Stats(); st.Hits == 0 {
		t.Fatalf("healthy result was not cached: %+v", st)
	}
}

func TestMQ2EmbedErrorDegrades(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Embedder = brokenEmbedder{dim: 64}
	hits, err := s.SearchDegraded(context.Background(), "bloccare la carta", Options{Expansion: MQ2})
	if err != nil {
		t.Fatalf("MQ2 with broken embedder errored: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if !deg.VectorSkipped {
		t.Fatalf("MQ2 degradation = %+v, want VectorSkipped", deg)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("MQ2 degraded results = %+v", res)
	}
}

func TestMQ1EmbedErrorDegrades(t *testing.T) {
	s, _ := buildSearcher(t)
	s.Embedder = brokenEmbedder{dim: 64}
	hits, err := s.SearchDegraded(context.Background(), "bloccare la carta", Options{Expansion: MQ1})
	if err != nil {
		t.Fatalf("MQ1 with broken embedder errored: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if !deg.VectorSkipped {
		t.Fatalf("MQ1 degradation = %+v, want VectorSkipped", deg)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("MQ1 degraded results = %+v", res)
	}
}

// resilientEmbedderIntegration: a Resilient embedder wrapping a flaky
// CtxEmbedder slots into the Searcher and heals transient failures before
// they become degradation.
type flakyEmbedder struct {
	inner        embedding.CtxEmbedder
	failuresLeft int
}

func (f *flakyEmbedder) Dim() int { return f.inner.Dim() }
func (f *flakyEmbedder) EmbedCtx(ctx context.Context, text string) (vector.Vector, error) {
	if f.failuresLeft > 0 {
		f.failuresLeft--
		return nil, errors.New("transient embedding failure")
	}
	return f.inner.EmbedCtx(ctx, text)
}

func TestResilientEmbedderHealsTransientFailure(t *testing.T) {
	s, emb := buildSearcher(t)
	s.Embedder = &embedding.Resilient{
		Inner: &flakyEmbedder{inner: emb, failuresLeft: 1},
	}
	hits, err := s.SearchDegraded(context.Background(), "bloccare la carta di credito", Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, deg := hits.Results, hits.Degradation
	if deg.Degraded() {
		t.Fatalf("retry should have healed the transient failure, got %+v", deg)
	}
	if len(res) == 0 || res[0].ParentID != "d1" {
		t.Fatalf("results = %+v", res)
	}
}

// fetchOutageBackend serves searches normally but fails the batched
// document fetch while down is set: a replica group that dies between the
// retrieval legs and materialization.
type fetchOutageBackend struct {
	shard.Backend
	down atomic.Bool
}

func (b *fetchOutageBackend) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	if b.down.Load() {
		return nil, errors.New("shard unreachable")
	}
	return b.Backend.DocsByID(ctx, ids)
}

// An outage that hits only the document fetch used to drop the dead shard's
// hits silently and cache the shortened ranking as complete.
func TestFetchOutageDegradesAndIsNotCached(t *testing.T) {
	mono, _ := buildSearcher(t)
	backends := make([]shard.Backend, 2)
	flaky := make([]*fetchOutageBackend, len(backends))
	for i := range backends {
		flaky[i] = &fetchOutageBackend{Backend: shard.NewLocal(index.NewSegmented(index.Config{}, index.SegmentConfig{}))}
		backends[i] = flaky[i]
	}
	facade := shard.NewWithBackends(shard.Config{}, backends)
	docs, _ := mono.Index.DocsByID(context.Background(), []string{"d1#0", "d1#1", "d2#0", "d3#0", "d4#0"})
	// The outage takes the shard that owns the query's best hit, so it
	// visibly costs a result.
	const query, best = "bloccare la carta di credito", "d1#0"
	owner := flaky[facade.ShardFor(best)]
	if err := facade.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	facade.Publish()
	s := &Searcher{Index: facade, Embedder: mono.Embedder, Reranker: mono.Reranker, Cache: NewQueryCache(8)}

	owner.down.Store(true)
	hits, err := s.SearchDegraded(context.Background(), query, Options{})
	if err != nil {
		t.Fatalf("fetch outage must degrade, not error: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if deg.ShardsDown != 1 || !deg.Degraded() {
		t.Fatalf("fetch outage not reported: %+v", deg)
	}
	for _, r := range res {
		if facade.ShardFor(r.ChunkID) == facade.ShardFor(best) {
			t.Fatalf("result %s came from the unreachable shard", r.ChunkID)
		}
	}

	// The shard recovers: the query is recomputed in full, not replayed
	// shortened from the cache.
	owner.down.Store(false)
	hits, err = s.SearchDegraded(context.Background(), query, Options{})
	res, deg = hits.Results, hits.Degradation
	if err != nil || deg.Degraded() {
		t.Fatalf("after recovery: deg=%+v err=%v", deg, err)
	}
	if len(res) == 0 || res[0].ChunkID != best {
		t.Fatalf("after recovery the best hit is missing: %+v", res)
	}
	if st := s.Cache.Stats(); st.Hits != 0 {
		t.Fatalf("degraded result was served from cache: %+v", st)
	}

	// A hit deleted between retrieval and the fetch stays a quiet skip.
	if got, down := facade.DocsByID(context.Background(), []string{"d9#9", best}); down != 0 || got[0].ID != "" || got[1].ID != best {
		t.Fatalf("unknown id: docs=%+v down=%d", got, down)
	}
}
