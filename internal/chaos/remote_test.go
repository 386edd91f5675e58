package chaos

// Network chaos for the remote-shard topology. The availability bar mirrors
// the LLM-fault suite: killing one replica in the middle of a query storm
// must not cost a single failed or degraded query — the hedged scatter-gather
// fails over to the surviving replica of every shard and the killed
// endpoint's circuit breaker opens. Degradation (partial results, never an
// error) is only permitted once EVERY replica of a shard is down.
//
// Replica placement here is explicit — shard i lives on servers i and
// (i+1) mod 3 — rather than consistent-hash derived: ephemeral loopback
// ports make ring placement vary run to run, and a chaos assertion about
// "all replicas of shard 0" needs to know exactly which processes those are.
// The ring itself is covered by the placement tests in internal/remote.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/remote"
	"uniask/internal/rerank"
	"uniask/internal/resilience"
	"uniask/internal/search"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// remoteCluster is a loopback shard-server fleet with explicit replica
// placement: 3 servers, 3 logical shards, replication factor 2, shard i on
// servers i and (i+1)%3. Killing server 0 leaves every shard one live
// replica; killing servers 0 AND 1 blacks out exactly shard 0.
type remoteCluster struct {
	servers  []*remote.Server
	breakers []*resilience.Breaker // one per endpoint, shared by its clients
	facade   *shard.Sharded
}

const clusterServers = 3

func startRemoteCluster(t *testing.T) *remoteCluster {
	t.Helper()
	cfg := index.Config{
		Schema:      indexer.Schema(),
		VectorIndex: func(string) vector.Index { return vector.NewExhaustive() },
	}
	c := &remoteCluster{}
	addrs := make([]string, clusterServers)
	for i := 0; i < clusterServers; i++ {
		srv := remote.NewServer(remote.ServerConfig{Index: cfg})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		c.servers = append(c.servers, srv)
		addrs[i] = srv.Addr()
		c.breakers = append(c.breakers, resilience.NewBreaker(resilience.BreakerConfig{
			Name: "remote:" + srv.Addr(),
		}))
	}
	backends := make([]shard.Backend, clusterServers)
	for i := range backends {
		var replicas []*remote.Client
		for j := 0; j < 2; j++ {
			ep := (i + j) % clusterServers
			replicas = append(replicas, remote.NewClient(remote.ClientConfig{
				Addr:    addrs[ep],
				Shard:   i,
				Breaker: c.breakers[ep],
			}))
		}
		backends[i] = remote.NewGroup(replicas, 0)
	}
	c.facade = shard.NewWithBackends(shard.Config{Shards: clusterServers, Index: cfg}, backends)
	t.Cleanup(func() { c.facade.Close() })
	return c
}

// loadRemoteCluster feeds a generated corpus through the real ingestion
// pipeline into the cluster's facade and returns the retrieval stack plus a
// query sample.
func loadRemoteCluster(t *testing.T, c *remoteCluster, seed int64) (*search.Searcher, []string) {
	t.Helper()
	corpus := kb.Generate(kb.GenConfig{Docs: 48, Seed: seed})
	pages := make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	docs := (&ingest.Ingester{Source: pages}).Changes()
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())
	in := indexer.New(c.facade, emb, client, indexer.Config{})
	if _, err := in.Index(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	c.facade.Publish()
	c.facade.WaitCompaction()
	var queries []string
	for _, q := range corpus.HumanDataset(6, seed+100).Queries {
		queries = append(queries, q.Text)
	}
	for _, q := range corpus.KeywordDataset(6, seed+200).Queries {
		queries = append(queries, q.Text)
	}
	// No query cache: a cache would serve stormed queries from memory and
	// the availability numbers would stop measuring the wire at all.
	return &search.Searcher{
		Index:    c.facade,
		Embedder: emb,
		Reranker: rerank.New(),
		LLM:      client,
		Workers:  4,
	}, queries
}

// TestChaosRemoteReplicaKillMidStorm kills one shard server in the middle of
// a concurrent query storm. Every shard keeps one live replica, so the bar
// is absolute: zero failed queries, zero degraded queries — the hedged
// scatter-gather must absorb the crash invisibly — and the killed endpoint's
// circuit breaker must be open by the end of the storm.
func TestChaosRemoteReplicaKillMidStorm(t *testing.T) {
	c := startRemoteCluster(t)
	searcher, queries := loadRemoteCluster(t, c, chaosSeed(t))

	const (
		workers          = 6
		queriesPerWorker = 30
		killAfter        = 20 // total queries completed before the kill
	)
	var (
		done     atomic.Int64
		failures atomic.Int64
		degraded atomic.Int64
		killOnce sync.Once
		firstErr atomic.Value
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				q := queries[(w*queriesPerWorker+i)%len(queries)]
				hits, err := searcher.SearchDegraded(context.Background(), q, search.Options{})
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("worker %d query %q: %w", w, q, err))
				}
				deg := hits.Degradation
				if deg.ShardsDown > 0 {
					degraded.Add(1)
				}
				if done.Add(1) == killAfter {
					killOnce.Do(func() { c.servers[0].Close() })
				}
			}
		}(w)
	}
	wg.Wait()
	killOnce.Do(func() { c.servers[0].Close() }) // storm shorter than killAfter would skip the kill

	if n := failures.Load(); n > 0 {
		t.Errorf("replica kill cost %d/%d queries; first: %v", n, done.Load(), firstErr.Load())
	}
	if n := degraded.Load(); n > 0 {
		t.Errorf("replica kill degraded %d/%d queries; hedged failover should mask a single-replica outage", n, done.Load())
	}
	// The dead endpoint must have tripped its breaker; the survivors must not.
	// The storm's failover traffic guarantees enough failures to trip it.
	if st := c.breakers[0].State(); st != resilience.Open {
		t.Errorf("killed endpoint's breaker is %v, want open", st)
	}
	for i := 1; i < clusterServers; i++ {
		if st := c.breakers[i].State(); st != resilience.Closed {
			t.Errorf("surviving endpoint %d's breaker is %v, want closed", i, st)
		}
	}
}

// TestChaosRemoteShardBlackout kills BOTH replicas of shard 0 (servers 0 and
// 1). This is the one situation where degradation is allowed — and it must
// be degradation, not failure: every query still returns the surviving
// shards' results with Degradation.ShardsDown reporting exactly the one
// blacked-out shard.
func TestChaosRemoteShardBlackout(t *testing.T) {
	c := startRemoteCluster(t)
	searcher, queries := loadRemoteCluster(t, c, chaosSeed(t)+1)

	// Sanity before the blackout: healthy cluster, complete results.
	hits, err := searcher.SearchDegraded(context.Background(), queries[0], search.Options{})
	res, deg := hits.Results, hits.Degradation
	if err != nil || deg.Degraded() {
		t.Fatalf("healthy cluster: err=%v degradation=%v", err, deg.Parts())
	}
	if len(res) == 0 {
		t.Fatal("healthy cluster returned no results")
	}

	c.servers[0].Close()
	c.servers[1].Close()

	sawResults := false
	for _, q := range queries {
		hits, err := searcher.SearchDegraded(context.Background(), q, search.Options{})
		if err != nil {
			t.Fatalf("blackout of shard 0 must degrade, not fail: query %q: %v", q, err)
		}
		res, deg := hits.Results, hits.Degradation
		if deg.ShardsDown != 1 {
			t.Errorf("query %q: ShardsDown = %d, want 1 (shards 1 and 2 keep a live replica on server 2)", q, deg.ShardsDown)
		}
		if !deg.Degraded() {
			t.Errorf("query %q: blackout not reported as a degradation", q)
		}
		if len(res) > 0 {
			sawResults = true
		}
	}
	if !sawResults {
		t.Error("every blackout query came back empty; surviving shards contributed nothing")
	}
}
