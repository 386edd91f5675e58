package remote

// Counted wire work on the query path: the parity corpus on four loopback
// shard servers at replication 2, with every byte the servers read or
// write counted at the socket.

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"uniask/internal/embedding"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/rerank"
	"uniask/internal/search"
	"uniask/internal/shard"
)

// countingListener counts, into n, every byte its connections carry.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// parityCluster is the 120-page parity corpus (seed 7) indexed through a
// 4-shard facade over 4 loopback servers at replication 2, behind a
// searcher with a query cache, plus the corpus's distinct evaluation
// queries. Hedging waits an hour, so every read goes to exactly one
// replica and the wire work of a query does not depend on timing.
type parityCluster struct {
	searcher *search.Searcher
	facade   *shard.Sharded
	groups   []*Group
	indexer  *indexer.Indexer
	pages    ingest.StaticSource
	queries  []string
	wire     atomic.Int64        // bytes read and written by the servers
	rpcs     [opEnd]atomic.Int64 // requests the servers answered, by op
}

func newParityCluster(t *testing.T) *parityCluster {
	t.Helper()
	pc := &parityCluster{}
	endpoints := make([]string, 4)
	for i := range endpoints {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(ServerConfig{Index: testConfig()})
		srv.seen = func(o op) {
			if o < opEnd {
				pc.rpcs[o].Add(1)
			}
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(countingListener{Listener: ln, n: &pc.wire})
		}()
		t.Cleanup(func() {
			ln.Close()
			<-served
			srv.Close()
		})
		endpoints[i] = ln.Addr().String()
	}
	backends := make([]shard.Backend, 4)
	for s, replicas := range Placement(endpoints, 4, 2) {
		clients := make([]*Client, len(replicas))
		for i, ep := range replicas {
			clients[i] = NewClient(ClientConfig{Addr: ep, Shard: s})
		}
		pc.groups = append(pc.groups, NewGroup(clients, time.Hour))
		backends[s] = pc.groups[s]
	}
	pc.facade = shard.NewWithBackends(shard.Config{Index: testConfig()}, backends)
	t.Cleanup(func() { pc.facade.Close() })

	const seed = 7
	corpus := kb.Generate(kb.GenConfig{Docs: 120, Seed: seed})
	pc.pages = make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pc.pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())
	ctx := context.Background()
	pc.indexer = indexer.New(pc.facade, emb, client, indexer.Config{})
	if _, err := pc.indexer.Index(ctx, (&ingest.Ingester{Source: pc.pages}).Changes()); err != nil {
		t.Fatal(err)
	}
	pc.facade.Publish()
	pc.facade.WaitCompaction()
	pc.searcher = &search.Searcher{
		Index:    pc.facade,
		Embedder: emb,
		Reranker: rerank.New(),
		LLM:      client,
		Workers:  4,
		Cache:    search.NewQueryCache(64),
	}
	seen := make(map[string]bool)
	for _, q := range corpus.HumanDataset(12, seed+100).Queries {
		if !seen[q.Text] {
			seen[q.Text] = true
			pc.queries = append(pc.queries, q.Text)
		}
	}
	for _, q := range corpus.KeywordDataset(12, seed+200).Queries {
		if !seen[q.Text] {
			seen[q.Text] = true
			pc.queries = append(pc.queries, q.Text)
		}
	}
	return pc
}

// wireBytesPerQuery is the ceiling on the bytes that cross the wire, both
// directions, per uncached default-options query on the parity cluster:
// the value measured when type descriptors began to cross once per
// connection (93.8 KB), plus 10 %. With descriptors in every frame the
// same queries cost 153.3 KB.
const wireBytesPerQuery = 103_200

// TestRemoteQueryWireBudget is the counted guard on the remote query path:
// after one warm-up query has opened the connections, every further
// uncached query — two status reads per replica, the stats wave, the
// text and vector legs and the document fetch — stays within
// wireBytesPerQuery on average.
func TestRemoteQueryWireBudget(t *testing.T) {
	pc := newParityCluster(t)
	ctx := context.Background()
	if _, err := pc.searcher.Search(ctx, pc.queries[0], search.Options{}); err != nil {
		t.Fatal(err)
	}
	before := pc.wire.Load()
	for _, q := range pc.queries[1:] {
		if _, err := pc.searcher.Search(ctx, q, search.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(pc.queries) - 1)
	perQuery := (pc.wire.Load() - before) / n
	t.Logf("%d bytes on the wire per uncached query (%d queries)", perQuery, n)
	if perQuery > wireBytesPerQuery {
		t.Errorf("%d bytes on the wire per uncached query, ceiling %d", perQuery, wireBytesPerQuery)
	}
}

// TestQueryFetchIsPooled: the document fetch of a real query on the parity
// corpus is well under maxPooledFrame, so the connection that carried it
// goes back to the pool.
func TestQueryFetchIsPooled(t *testing.T) {
	pc := newParityCluster(t)
	ctx := context.Background()
	res, err := pc.searcher.Search(ctx, pc.queries[0], search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	owned := make([][]string, len(pc.groups))
	for _, r := range res {
		s := pc.facade.ShardFor(r.ChunkID)
		owned[s] = append(owned[s], r.ChunkID)
	}
	for s, ids := range owned {
		if len(ids) == 0 {
			continue
		}
		for _, c := range pc.groups[s].replicas {
			fresh := NewClient(c.cfg)
			docs, err := NewGroup([]*Client{fresh}, 0).DocsByID(ctx, ids)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(idleConns(fresh)); n != 1 {
				t.Errorf("shard %d: the connection that fetched %d documents was not pooled", s, len(docs))
			}
			fresh.Close()
		}
	}
}

// editPass re-indexes three pages of the corpus, each with another page's
// body, and returns what the indexer returned.
func (pc *parityCluster) editPass() (int, error) {
	edits := ingest.StaticSource{
		{ID: pc.pages[0].ID, HTML: pc.pages[50].HTML},
		{ID: pc.pages[1].ID, HTML: pc.pages[51].HTML},
		{ID: pc.pages[2].ID, HTML: pc.pages[52].HTML},
	}
	return pc.indexer.Index(context.Background(), (&ingest.Ingester{Source: edits}).Changes())
}

// editPassRPCs is the ceiling on the RPCs a pass that edits three pages of
// the parity cluster sends: the 28 measured when presence became one batch
// per shard, plus 10 %. Asking the shards about each page in turn, and
// again before replacing it, the same pass sent 38.
const editPassRPCs = 30

// TestIngestRPCBudget is the counted guard on the sharded write path. The
// 120-page bulk load asks each shard once whether its pages are indexed
// (it used to ask each shard about each page: 480 presence RPCs), and an
// edit pass stays within editPassRPCs.
func TestIngestRPCBudget(t *testing.T) {
	pc := newParityCluster(t)
	presence := pc.rpcs[opHasParents].Load()
	t.Logf("bulk load of %d pages: %d presence RPCs", len(pc.pages), presence)
	if presence > int64(len(pc.groups)) {
		t.Errorf("bulk load of %d pages sent %d presence RPCs, ceiling %d (one per shard)", len(pc.pages), presence, len(pc.groups))
	}

	before := make([]int64, opEnd)
	for o := range before {
		before[o] = pc.rpcs[o].Load()
	}
	if applied, err := pc.editPass(); err != nil || applied != 3 {
		t.Fatalf("edit pass: applied %d of 3, %v", applied, err)
	}
	var total int64
	for o := opPing; o < opEnd; o++ {
		if n := pc.rpcs[o].Load() - before[o]; n > 0 {
			t.Logf("edit pass: %d %s", n, o)
			total += n
		}
	}
	if total > editPassRPCs {
		t.Errorf("a pass editing 3 pages sent %d RPCs, ceiling %d", total, editPassRPCs)
	}
}
