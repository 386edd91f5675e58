package shard_test

// The network-distributed extension of the parity criterion: a facade whose
// shards live on remote shard servers — replicated, hedged, reached over
// TCP loopback — must rank byte-identically to the same facade with
// in-process shards AND to the monolithic index, across the segmented
// store's whole lifecycle (live memtables, tombstones, full compaction).
// The wire protocol must be a transparent transport; replication and
// hedging must add availability, never change a single byte of a ranking.

import (
	"context"
	"fmt"
	"testing"

	"uniask/internal/index"
	"uniask/internal/remote"
	"uniask/internal/search"
	"uniask/internal/shard"

	"uniask/internal/embedding"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/rerank"
	"uniask/internal/vector"
)

// remoteCluster boots loopback shard servers for one facade topology and
// returns the remote backends addressing them. No external processes: the
// servers are the same code cmd/uniask-shard runs, listening on ephemeral
// loopback ports inside the test.
func remoteCluster(t testing.TB, servers, shards, replication int, ixCfg index.Config, segCfg index.SegmentConfig) []shard.Backend {
	t.Helper()
	return remoteBackends(remoteServers(t, servers, ixCfg, segCfg), shards, replication)
}

// remoteServers starts n loopback shard servers, closed with the test.
func remoteServers(t testing.TB, n int, ixCfg index.Config, segCfg index.SegmentConfig) []*remote.Server {
	t.Helper()
	srvs := make([]*remote.Server, n)
	for i := range srvs {
		srvs[i] = remote.NewServer(remote.ServerConfig{Index: ixCfg, Segment: segCfg})
		if err := srvs[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srvs[i].Close)
	}
	return srvs
}

// remoteBackends lays shards logical shards over srvs at the given
// replication factor.
func remoteBackends(srvs []*remote.Server, shards, replication int) []shard.Backend {
	endpoints := make([]string, len(srvs))
	for i, srv := range srvs {
		endpoints[i] = srv.Addr()
	}
	return remote.Topology{
		Endpoints:   endpoints,
		Shards:      shards,
		Replication: replication,
	}.Backends()
}

// compactAllLocal fully merges every in-process shard of facade: the
// counterpart of (*index.Index).Compact on the monolithic side. The merge
// policy alone reclaims lazily, so "tombstone-free" has to be asked for.
func compactAllLocal(t testing.TB, facade *shard.Sharded) {
	t.Helper()
	for i := 0; i < facade.NumShards(); i++ {
		if err := facade.Shard(i).CompactAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// compactAllServers is compactAllLocal for every replica store hosted by
// srvs.
func compactAllServers(t testing.TB, srvs []*remote.Server) {
	t.Helper()
	for _, srv := range srvs {
		for _, id := range srv.Shards() {
			if err := srv.Store(id).CompactAll(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardParityRemoteThreeWay is the three-way lifecycle parity harness:
// remote == in-process == monolithic, byte-identical at every shard count,
// first with live memtables and tombstones in place, then again after full
// compaction. Replication factor 2 over three servers means every query
// scatter-gathers over genuinely replicated remote shards.
func TestShardParityRemoteThreeWay(t *testing.T) {
	if testing.Short() {
		t.Skip("network lifecycle parity is not a -short test")
	}
	const seed = 7
	corpus := kb.Generate(kb.GenConfig{Docs: parityCorpusDocs, Seed: seed})
	docs := extractCorpus(t, corpus)
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())
	queries := parityQueries(corpus, seed)
	variants := parityVariants()

	var victims []string
	for i := 0; i < len(corpus.Docs); i += 9 {
		victims = append(victims, corpus.Docs[i].ID)
	}

	// Monolithic baselines: live phase (with tombstones), then compacted.
	monoIx := index.New(exhaustiveConfig())
	mono := buildSearcher(t, monoIx, docs, emb, client)
	for _, p := range victims {
		monoIx.DeleteParent(p)
	}
	type key struct{ variant, query int }
	wantLive := make(map[key]string)
	for vi, v := range variants {
		for qi, q := range queries {
			res, err := mono.Search(context.Background(), q, v.opts)
			if err != nil {
				t.Fatalf("monolithic %s %q: %v", v.name, q, err)
			}
			wantLive[key{vi, qi}] = fmt.Sprintf("%#v", res)
		}
	}
	monoLive := monoIx.LiveLen()

	// Sentinels covering every shard residue (see parity_test.go): they
	// guarantee one fresh seal per shard so the final compaction drains
	// every tombstone on both facades.
	probe := shard.New(shard.Config{Shards: 8, Index: exhaustiveConfig()})
	sentinels := make([]index.Document, 0, 8)
	covered := make(map[int]bool)
	for i := 0; len(covered) < 8 && i < 1000; i++ {
		id := fmt.Sprintf("pad%03d#0", i)
		res := probe.ShardFor(id)
		if covered[res] {
			continue
		}
		covered[res] = true
		title := fmt.Sprintf("Nota operativa %d", i)
		content := fmt.Sprintf("Aggiornamento %d della nota operativa sul conto.", i)
		sentinels = append(sentinels, index.Document{
			ID: id, ParentID: fmt.Sprintf("pad%03d", i),
			Fields: map[string]string{"title": title, "content": content},
			Vectors: map[string]vector.Vector{
				"titleVector":   emb.Embed(title),
				"contentVector": emb.Embed(content),
			},
		})
	}
	if len(sentinels) != 8 {
		t.Fatalf("found %d sentinel residues, want 8", len(sentinels))
	}
	for _, d := range sentinels {
		if err := monoIx.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	compactedIx, err := monoIx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	compacted := &search.Searcher{Index: compactedIx, Embedder: emb, Reranker: rerank.New(), LLM: client, Workers: 4}
	wantCompacted := make(map[key]string)
	for vi, v := range variants {
		for qi, q := range queries {
			res, err := compacted.Search(context.Background(), q, v.opts)
			if err != nil {
				t.Fatalf("compacted monolithic %s %q: %v", v.name, q, err)
			}
			wantCompacted[key{vi, qi}] = fmt.Sprintf("%#v", res)
		}
	}

	segCfg := index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// The in-process facade and the remote facade share nothing but
			// configuration: the remote one scatter-gathers over three
			// loopback shard servers at replication factor 2.
			localFacade := shard.New(shard.Config{Shards: shards, Index: exhaustiveConfig(), Segment: segCfg})
			srvs := remoteServers(t, 3, exhaustiveConfig(), segCfg)
			backends := remoteBackends(srvs, shards, 2)
			remoteFacade := shard.NewWithBackends(shard.Config{Shards: shards, Index: exhaustiveConfig(), Segment: segCfg}, backends)
			defer remoteFacade.Close()

			local := buildSearcher(t, localFacade, docs, emb, client)
			remoteS := buildSearcher(t, remoteFacade, docs, emb, client)
			localFacade.WaitCompaction()
			remoteFacade.WaitCompaction()
			for _, p := range victims {
				localFacade.DeleteParent(p)
				remoteFacade.DeleteParent(p)
			}
			if got := remoteFacade.LiveLen(); got != monoLive {
				t.Fatalf("remote facade holds %d live chunks, monolithic %d", got, monoLive)
			}
			if got := localFacade.LiveLen(); got != monoLive {
				t.Fatalf("in-process facade holds %d live chunks, monolithic %d", got, monoLive)
			}
			for vi, v := range variants {
				for qi, q := range queries {
					lres, err := local.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("live in-process %s %q: %v", v.name, q, err)
					}
					rres, err := remoteS.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("live remote %s %q: %v", v.name, q, err)
					}
					want := wantLive[key{vi, qi}]
					if got := fmt.Sprintf("%#v", lres); got != want {
						t.Errorf("live %s %q: in-process diverged from monolithic\nmono:  %s\nlocal: %s", v.name, q, want, got)
					}
					if got := fmt.Sprintf("%#v", rres); got != want {
						t.Errorf("live %s %q: remote diverged from monolithic\nmono:   %s\nremote: %s", v.name, q, want, got)
					}
				}
			}

			// Publish + full compaction on both facades, then the three-way
			// comparison again against the compacted monolithic baseline.
			for _, d := range sentinels {
				if err := localFacade.Add(d); err != nil {
					t.Fatal(err)
				}
				if err := remoteFacade.Add(d); err != nil {
					t.Fatal(err)
				}
			}
			localFacade.Publish()
			localFacade.WaitCompaction()
			compactAllLocal(t, localFacade)
			remoteFacade.Publish()
			remoteFacade.WaitCompaction()
			compactAllServers(t, srvs)
			if got := localFacade.Tombstones(); got != 0 {
				t.Fatalf("in-process compaction left %d tombstones", got)
			}
			if got := remoteFacade.Tombstones(); got != 0 {
				t.Fatalf("remote compaction left %d tombstones", got)
			}
			for vi, v := range variants {
				for qi, q := range queries {
					lres, err := local.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("compacted in-process %s %q: %v", v.name, q, err)
					}
					rres, err := remoteS.Search(context.Background(), q, v.opts)
					if err != nil {
						t.Fatalf("compacted remote %s %q: %v", v.name, q, err)
					}
					want := wantCompacted[key{vi, qi}]
					if got := fmt.Sprintf("%#v", lres); got != want {
						t.Errorf("compacted %s %q: in-process diverged from monolithic\nmono:  %s\nlocal: %s", v.name, q, want, got)
					}
					if got := fmt.Sprintf("%#v", rres); got != want {
						t.Errorf("compacted %s %q: remote diverged from monolithic\nmono:   %s\nremote: %s", v.name, q, want, got)
					}
				}
			}
		})
	}
}
