package remote

// Race stress for the remote scatter-gather: concurrent readers hammer a
// replicated remote facade — text, vector, point-lookup and staleness-gauge
// traffic — while a single live writer ingests, publishes and deletes.
// This is the concurrency contract of the monolithic index (any number of
// readers racing one writer) re-proven with the connection pool, the hedged
// fan-out and the shard servers' own locking in the loop; the test only
// means something under `-race`, which `make check` guarantees.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uniask/internal/index"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

func TestStressRemoteIngestWhileQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test is not a -short test")
	}
	cfg := testConfig()
	seg := index.SegmentConfig{MemtableMaxDocs: 16, CompactionFanIn: 2}
	servers := make([]*Server, 3)
	endpoints := make([]string, len(servers))
	for i := range servers {
		servers[i] = startServer(t, ServerConfig{Index: cfg, Segment: seg})
		endpoints[i] = servers[i].Addr()
	}
	backends := Topology{Endpoints: endpoints, Shards: 4, Replication: 2}.Backends()
	facade := shard.NewWithBackends(shard.Config{Shards: 4, Index: cfg, Segment: seg}, backends)
	defer facade.Close()

	const (
		totalDocs   = 240
		readWorkers = 4
	)
	qvec := make(vector.Vector, 8)
	for d := range qvec {
		qvec[d] = float32(d) / 8
	}

	var (
		writerDone atomic.Bool
		searches   atomic.Int64
	)
	var readers sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < readWorkers; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; !writerDone.Load(); i++ {
				switch i % 4 {
				case 0:
					hits, down := facade.SearchTextPartial(ctx, "conto corrente carte", 10, index.TextOptions{})
					if down != 0 {
						t.Errorf("reader %d: text leg reported %d shards down on a healthy cluster", w, down)
						return
					}
					_ = hits
				case 1:
					_, down := facade.SearchVectorPartial(ctx, "titleVector", qvec, 10, nil)
					if down != 0 {
						t.Errorf("reader %d: vector leg reported %d shards down on a healthy cluster", w, down)
						return
					}
				case 2:
					// The staleness gauges the query cache keys on; they must
					// stay readable (and monotonic per shard) mid-ingest.
					_ = facade.StatsKey()
					_ = facade.LiveLen()
				case 3:
					facade.DocByID(fmt.Sprintf("kb%05d#0", i%totalDocs))
				}
				searches.Add(1)
			}
		}(w)
	}

	// The single live writer: ingest with periodic publication, deleting
	// every 10th parent after it was published.
	for i := 0; i < totalDocs; i++ {
		if err := facade.Add(testDoc(i)); err != nil {
			t.Errorf("add %d: %v", i, err)
			break
		}
		if i%32 == 31 {
			facade.Publish()
		}
		if i%10 == 9 {
			facade.DeleteParent(fmt.Sprintf("kb%05d", i-9))
		}
	}
	writerDone.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	facade.Publish()
	facade.WaitCompaction()
	// The policy reclaims lazily; a full merge of every replica store is
	// what leaves the cluster tombstone-free.
	for _, srv := range servers {
		for _, id := range srv.Shards() {
			if err := srv.Store(id).CompactAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := facade.LiveLen(), totalDocs-totalDocs/10; got != want {
		t.Fatalf("after the storm: %d live chunks, want %d", got, want)
	}
	for i := 0; i < facade.NumShards(); i++ {
		if n := facade.Backend(i).Stats().Tombstones; n != 0 {
			t.Fatalf("compaction left %d tombstones on shard %d", n, i)
		}
	}
	if n := searches.Load(); n < int64(readWorkers) {
		t.Fatalf("readers completed only %d operations", n)
	}
	t.Logf("storm: %d reader operations raced %d writes", searches.Load(), totalDocs)
}
