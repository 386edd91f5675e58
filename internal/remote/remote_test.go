package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/resilience"
	"uniask/internal/shard"
	"uniask/internal/vclock"
	"uniask/internal/vector"
)

// testConfig is the shared store configuration of the wire tests: the real
// production schema with the exact vector backend, so client-vs-local
// comparisons are deterministic.
func testConfig() index.Config {
	return index.Config{
		Schema:      indexer.Schema(),
		VectorIndex: func(string) vector.Index { return vector.NewExhaustive() },
	}
}

// testDoc builds a small deterministic document.
func testDoc(i int) index.Document {
	title := fmt.Sprintf("Documento operativo %d", i)
	content := fmt.Sprintf("Istruzioni operative %d per la gestione del conto corrente e delle carte.", i)
	vec := make(vector.Vector, 8)
	for d := range vec {
		vec[d] = float32((i*7+d*3)%13) / 13
	}
	return index.Document{
		ID:       fmt.Sprintf("kb%05d#0", i),
		ParentID: fmt.Sprintf("kb%05d", i),
		Fields:   map[string]string{"title": title, "content": content},
		Vectors:  map[string]vector.Vector{"titleVector": vec, "contentVector": vec},
	}
}

// startServer boots a loopback shard server and returns it with its address.
func startServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServer(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// single wraps one endpoint as the one-replica group that is the only way
// to address it as a shard.Backend.
func single(addr string, shard int) *Group {
	return NewGroup([]*Client{NewClient(ClientConfig{Addr: addr, Shard: shard})}, 0)
}

// TestClientIsNotABackend: the transport to one endpoint is not a second
// implementation of the facade's backend surface; only a Group is.
func TestClientIsNotABackend(t *testing.T) {
	if _, ok := any((*Client)(nil)).(shard.Backend); ok {
		t.Fatal("*Client satisfies shard.Backend again; a lone endpoint is NewGroup([]*Client{c}, 0)")
	}
}

// idleConns returns the client's pooled connections.
func idleConns(c *Client) []*clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*clientConn(nil), c.idle...)
}

// TestEveryOpRoundTrips walks the op constants and requires of each one a
// name, a server-side dispatch case, and a round trip through a one-replica
// group that returns what a local segmented store returns for the same
// call: the wire layer must be a transparent transport, adding no behavior
// of its own. Both stores first take the same writes; a case that writes
// applies its write to both. The walk runs forward and then backward, each
// time over one pooled connection, so the codec state one op leaves behind
// must serve every other op in either order.
func TestEveryOpRoundTrips(t *testing.T) {
	cfg := testConfig()
	seg := index.SegmentConfig{MemtableMaxDocs: 8, CompactionFanIn: 2}
	srv := startServer(t, ServerConfig{Index: cfg, Segment: seg})
	// g is reassigned per pass; the cases below read it when they run. Every
	// pass goes through one endpoint breaker, so the retired op's case can
	// check that an unknown-op answer leaves it closed.
	breaker := resilience.NewBreaker(resilience.BreakerConfig{Name: "remote:" + srv.Addr()})
	dial := func() *Group {
		return NewGroup([]*Client{NewClient(ClientConfig{Addr: srv.Addr(), Shard: 3, Breaker: breaker})}, 0)
	}
	g := dial()
	defer func() { g.Close() }()
	local := index.NewSegmented(cfg, seg)
	ctx := context.Background()
	// quiesce settles both compactors, so both sides hold the same
	// tombstones whatever the RPC latency gave the remote one time to merge
	// (a compaction that drops a tombstone moves StatsKey).
	quiesce := func() {
		srv.Store(3).WaitCompaction()
		local.WaitCompaction()
	}

	var docs []index.Document
	for i := 0; i < 40; i++ {
		docs = append(docs, testDoc(i))
	}
	if _, err := g.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	if err := local.AddBulk(docs); err != nil {
		t.Fatal(err)
	}
	quiesce()
	g.Delete("kb00007#0")
	local.Delete("kb00007#0")
	g.DeleteParent("kb00011")
	local.DeleteParent("kb00011")
	g.Publish()
	local.Publish()

	ids := func(docs []index.Document) []string {
		out := make([]string, len(docs))
		for i, d := range docs {
			out[i] = d.ID
		}
		return out
	}
	queries := []string{"istruzioni conto", "carte", "gestione operativa", ""}
	qv := testDoc(3).Vectors["titleVector"]
	lstats := local.CollectStats(nil, nil)
	// One case per op: what the group answers, and what the local store
	// answers to the same call.
	cases := map[op]func() (remote, want any){
		opPing: func() (any, any) { return g.Replicas()[0].Ping(ctx), error(nil) },
		opCollectStats: func() (any, any) {
			got, err := g.CollectStats(ctx, []string{"title"}, []string{"conto", "carte"})
			return []any{got, err}, []any{local.CollectStats([]string{"title"}, []string{"conto", "carte"}), error(nil)}
		},
		opSearchText: func() (any, any) {
			var got, want []any
			for _, q := range queries {
				hits, err := g.SearchText(ctx, q, 10, index.TextOptions{})
				got = append(got, hits, err)
				want = append(want, local.SearchText(q, 10, index.TextOptions{}), error(nil))
			}
			return got, want
		},
		opSearchTextGlobal: func() (any, any) {
			var got, want []any
			for _, q := range queries {
				hits, err := g.SearchTextGlobal(ctx, q, 10, index.TextOptions{}, &lstats)
				got = append(got, hits, err)
				want = append(want, local.SearchTextGlobal(q, 10, index.TextOptions{}, &lstats), error(nil))
			}
			return got, want
		},
		opSearchVector: func() (any, any) {
			got, err := g.SearchVectorUnit(ctx, "titleVector", qv, 5, nil)
			return []any{got, err}, []any{local.SearchVectorUnit("titleVector", qv, 5, nil), error(nil)}
		},
		opAdd: func() (any, any) {
			// The second add of the same id is refused on both sides.
			got := []bool{g.Add(testDoc(40)) == nil, g.Add(testDoc(40)) == nil}
			return got, []bool{local.Add(testDoc(40)) == nil, local.Add(testDoc(40)) == nil}
		},
		opAddBulk: func() (any, any) {
			// The second batch stops at its duplicate on both sides, having
			// applied the one document before it.
			more := []index.Document{testDoc(41), testDoc(42), testDoc(43)}
			dup := []index.Document{testDoc(44), testDoc(41), testDoc(45)}
			var got, want []any
			for _, batch := range [][]index.Document{more, dup} {
				n, err := g.AddBulk(batch)
				got = append(got, n, err == nil)
				n, err = local.AddBulkCounted(batch)
				want = append(want, n, err == nil)
			}
			return got, want
		},
		opDelete: func() (any, any) {
			return []bool{g.Delete("kb00008#0"), g.Delete("kb00007#0")}, []bool{local.Delete("kb00008#0"), local.Delete("kb00007#0")}
		},
		opDeleteParent: func() (any, any) { return g.DeleteParent("kb00012"), local.DeleteParent("kb00012") },
		opParentChunkIDs: func() (any, any) {
			return [][]string{g.ParentChunkIDs("kb00005"), g.ParentChunkIDs("kb00011")},
				[][]string{local.ParentChunkIDs("kb00005"), local.ParentChunkIDs("kb00011")}
		},
		opRetiredHasParent: func() (any, any) {
			// Retired: the server answers it as an op it does not know, an
			// application error that leaves the endpoint's breaker closed.
			_, err := g.readDetached(request{Op: opRetiredHasParent, ID: "kb00005"})
			unknown := err != nil && strings.HasSuffix(err.Error(), ": remote: unknown op 11")
			return []any{unknown, g.Breakers()[0].State}, []any{true, "closed"}
		},
		opHasParents: func() (any, any) {
			batch := []string{"kb00005", "kb00011", "missing", "kb00005"}
			got, err := g.HasParents(batch)
			want, _ := local.HasParents(batch)
			return []any{got, err}, []any{want, error(nil)}
		},
		opDocByID: func() (any, any) {
			live, ok := g.DocByID("kb00005#0")
			_, deleted := g.DocByID("kb00007#0")
			wlive, wok := local.DocByID("kb00005#0")
			_, wdeleted := local.DocByID("kb00007#0")
			return []any{live, ok, deleted}, []any{wlive, wok, wdeleted}
		},
		opDoc:      func() (any, any) { return g.Doc(0), local.Doc(0) },
		opLiveDocs: func() (any, any) { return ids(g.LiveDocs()), ids(local.LiveDocs()) },
		opStatus: func() (any, any) {
			return []any{g.StatsKey(), g.Len(), g.LiveLen(), g.Tombstones(), g.Stats()},
				[]any{local.StatsKey(), local.Len(), local.LiveLen(), local.Tombstones(), local.Stats()}
		},
		opPublish: func() (any, any) {
			before := local.StatsKey()
			g.Publish()
			local.Publish()
			quiesce()
			return g.StatsKey() > before, local.StatsKey() > before
		},
		opWaitCompaction: func() (any, any) {
			g.WaitCompaction()
			local.WaitCompaction()
			return g.SegmentStats().Backlog, local.SegmentStats().Backlog
		},
		opSnapshot: func() (any, any) {
			// The remote snapshot restores to the same corpus.
			var snap bytes.Buffer
			if err := g.Save(&snap); err != nil {
				return err, nil
			}
			restored, err := index.ReadSegmented(&snap, cfg, seg)
			if err != nil {
				return err, nil
			}
			return ids(restored.LiveDocs()), ids(local.LiveDocs())
		},
		opDocsByID: func() (any, any) {
			batch := []string{"kb00005#0", "kb00007#0", "kb00020#0", "missing"}
			got, err := g.DocsByID(ctx, batch)
			want, _ := local.DocsByID(ctx, batch)
			return []any{got, err}, []any{want, error(nil)}
		},
	}

	// The dispatch probe runs against a server of its own: a bare request
	// must be recognised, whatever else the handler then says about it.
	probe := NewServer(ServerConfig{Index: cfg})
	var forward, backward []op
	for o := opPing; o < opEnd; o++ {
		forward = append(forward, o)
		backward = append([]op{o}, backward...)
		resp := probe.handle(&request{Op: o})
		if o == opRetiredHasParent {
			if resp.Err != "remote: unknown op 11" {
				t.Errorf("retired op 11 answered %+v, want remote: unknown op 11", resp)
			}
			continue
		}
		if strings.HasPrefix(o.String(), "op(") {
			t.Errorf("op %d has no name in String()", uint8(o))
		}
		if strings.Contains(resp.Err, "unknown op") {
			t.Errorf("%s: Server.handle has no case: %s", o, resp.Err)
		}
	}
	for _, pass := range []struct {
		name string
		ops  []op
	}{{"forward", forward}, {"backward", backward}} {
		g.Close()
		g = dial()
		var conn *clientConn
		for _, o := range pass.ops {
			run, ok := cases[o]
			if !ok {
				t.Errorf("%s has no round-trip case", o)
				continue
			}
			quiesce()
			got, want := run()
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Errorf("%s %s: remote %s\nlocal  %s", pass.name, o, g, w)
			}
			idle := idleConns(g.Replicas()[0])
			if len(idle) != 1 || (conn != nil && idle[0] != conn) {
				t.Fatalf("%s %s: the pool holds %d connections, want the pass's one connection", pass.name, o, len(idle))
			}
			conn = idle[0]
		}
	}
}

// TestServerIsolatesShards verifies one server hosts independent stores per
// logical shard id.
func TestServerIsolatesShards(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	g0, g1 := single(srv.Addr(), 0), single(srv.Addr(), 1)
	defer g0.Close()
	defer g1.Close()
	if err := g0.Add(testDoc(1)); err != nil {
		t.Fatal(err)
	}
	if got := g0.Len(); got != 1 {
		t.Fatalf("shard 0 holds %d docs, want 1", got)
	}
	if got := g1.Len(); got != 0 {
		t.Fatalf("shard 1 holds %d docs, want 0", got)
	}
}

// TestOnlyWritesCreateStores: the shard id is unvalidated network input, so
// pings and reads of ids the server does not host are answered as by an
// empty shard and register nothing; the first write hosts the shard; a
// negative id is refused without tripping the endpoint breaker.
func TestOnlyWritesCreateStores(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	ctx := context.Background()
	for id := 0; id < 50; id++ {
		g := single(srv.Addr(), id)
		if err := g.Replicas()[0].Ping(ctx); err != nil {
			t.Fatal(err)
		}
		if got := g.Len(); got != 0 {
			t.Fatalf("unhosted shard %d reports %d docs", id, got)
		}
		if hits, err := g.SearchText(ctx, "conto", 5, index.TextOptions{}); err != nil || len(hits) != 0 {
			t.Fatalf("unhosted shard %d search: %v, %v", id, hits, err)
		}
		g.Publish()
		g.Close()
	}
	if got := srv.Shards(); len(got) != 0 {
		t.Fatalf("pings and reads left %d hosted stores: %v", len(got), got)
	}
	g := single(srv.Addr(), 17)
	defer g.Close()
	if _, err := g.AddBulk([]index.Document{testDoc(1)}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Shards(); len(got) != 1 || got[0] != 17 {
		t.Fatalf("after one AddBulk the server hosts %v, want [17]", got)
	}

	b := resilience.NewBreaker(resilience.BreakerConfig{Name: "remote:" + srv.Addr(), FailureThreshold: 1})
	neg := NewClient(ClientConfig{Addr: srv.Addr(), Shard: -1, Breaker: b})
	defer neg.Close()
	if err := neg.Ping(ctx); err == nil || !strings.Contains(err.Error(), "negative shard id") {
		t.Errorf("ping of shard -1: %v, want a negative-shard-id refusal", err)
	}
	if err := NewGroup([]*Client{neg}, 0).Add(testDoc(2)); err == nil {
		t.Error("write to shard -1 accepted")
	}
	if b.State() != resilience.Closed {
		t.Errorf("endpoint breaker is %s after application-level refusals", b.State())
	}
	if got := srv.Shards(); len(got) != 1 {
		t.Errorf("negative shard id registered a store: %v", got)
	}
}

// TestGroupFailover proves a replica group survives a dead endpoint: with
// one live and one unreachable replica, every read still succeeds.
func TestGroupFailover(t *testing.T) {
	cfg := testConfig()
	srv := startServer(t, ServerConfig{Index: cfg})
	live := NewClient(ClientConfig{Addr: srv.Addr(), Shard: 0, DialTimeout: 500 * time.Millisecond})
	// A listener we close immediately gives a port that refuses connections.
	deadSrv := startServer(t, ServerConfig{Index: cfg})
	deadAddr := deadSrv.Addr()
	deadSrv.Close()
	dead := NewClient(ClientConfig{Addr: deadAddr, Shard: 0, DialTimeout: 500 * time.Millisecond})

	for name, g := range map[string]*Group{
		"dead-first": NewGroup([]*Client{dead, live}, time.Millisecond),
		"live-first": NewGroup([]*Client{live, dead}, time.Millisecond),
	} {
		if _, err := g.AddBulk([]index.Document{testDoc(0), testDoc(1)}); err == nil {
			t.Errorf("%s: write fan-out hid the dead replica", name)
		}
		hits, err := g.SearchText(context.Background(), "documento", 5, index.TextOptions{})
		if err != nil {
			t.Fatalf("%s: read did not fail over: %v", name, err)
		}
		if len(hits) == 0 {
			t.Fatalf("%s: no hits from the live replica", name)
		}
	}
}

// TestGroupAllReplicasDown: when every replica is unreachable the group
// reports an error (which the facade converts into a shard-down
// degradation).
func TestGroupAllReplicasDown(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	addr := srv.Addr()
	srv.Close()
	dead := NewClient(ClientConfig{Addr: addr, Shard: 0, DialTimeout: 200 * time.Millisecond})
	g := NewGroup([]*Client{dead}, time.Millisecond)
	if _, err := g.SearchText(context.Background(), "x", 5, index.TextOptions{}); err == nil {
		t.Fatal("want error when all replicas are down")
	}
}

// TestCancelledProbeDoesNotHealHungReplica: an endpoint that handshakes and
// then never answers has its breaker opened. After the cooldown a hedged
// read launches it as the half-open probe, the healthy replica wins and the
// probe is cancelled. The endpoint never answered a byte, so its breaker
// must not close, and the group keeps it a last resort.
func TestCancelledProbeDoesNotHealHungReplica(t *testing.T) {
	probed := make(chan struct{}, 1)
	hungAddr := startStub(t, func(*request) *response {
		select {
		case probed <- struct{}{}:
		default:
		}
		return nil
	})
	// The healthy replica answers once the probe has reached the hung one,
	// so the probe is in flight when it loses.
	liveAddr := startStub(t, func(*request) *response {
		<-probed
		return &response{Hits: []index.Hit{{ID: "kb00001#0"}}}
	})
	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := resilience.NewBreaker(resilience.BreakerConfig{Name: "remote:" + hungAddr, FailureThreshold: 1, Cooldown: time.Minute, Clock: clock})
	b.Do(func() error { return errors.New("status read timed out") })
	clock.Advance(time.Minute)
	hung := NewClient(ClientConfig{Addr: hungAddr, Shard: 0, Breaker: b})
	g := NewGroup([]*Client{hung, NewClient(ClientConfig{Addr: liveAddr, Shard: 0})}, time.Millisecond)
	defer g.Close()

	if _, err := g.SearchText(context.Background(), "conto", 5, index.TextOptions{}); err != nil {
		t.Fatal(err)
	}
	// The cancelled loser records its outcome while unwinding, after the
	// read has returned: wait until it has given the probe slot back.
	deadline := time.Now().Add(10 * time.Second)
	for b.State() == resilience.HalfOpen && b.Allow() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled probe never recorded its outcome")
		}
		time.Sleep(time.Millisecond)
	}
	if got := b.State(); got != resilience.HalfOpen {
		t.Fatalf("hung endpoint's breaker is %s after a cancelled probe, want half-open", got)
	}
	b.Record(context.Canceled) // hand back the slot the wait took
	for i := 0; i < 4; i++ {
		if order := g.order(); order[len(order)-1] != hung {
			t.Fatalf("read %d prefers the hung replica again", i)
		}
	}
}

// TestPlacement checks the consistent-hash placement invariants.
func TestPlacement(t *testing.T) {
	endpoints := []string{"a:1", "b:1", "c:1", "d:1"}
	p := Placement(endpoints, 8, 2)
	if len(p) != 8 {
		t.Fatalf("placement covers %d shards, want 8", len(p))
	}
	for s, replicas := range p {
		if len(replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", s, len(replicas))
		}
		if replicas[0] == replicas[1] {
			t.Fatalf("shard %d placed both replicas on %s", s, replicas[0])
		}
	}
	// Deterministic.
	q := Placement(endpoints, 8, 2)
	if fmt.Sprintf("%v", p) != fmt.Sprintf("%v", q) {
		t.Fatal("placement is not deterministic")
	}
	// Clamped rf.
	if one := Placement([]string{"a:1"}, 4, 3); len(one[0]) != 1 {
		t.Fatalf("rf not clamped: %v", one[0])
	}
	// Removing one endpoint moves only a fraction of assignments.
	moved := 0
	reduced := Placement([]string{"a:1", "b:1", "c:1"}, 8, 2)
	_ = reduced
	for s := range p {
		if fmt.Sprintf("%v", p[s]) != fmt.Sprintf("%v", reduced[s]) {
			moved++
		}
	}
	if moved == 8 {
		t.Error("removing one endpoint reshuffled every shard")
	}
}

// TestTopologyBackends verifies endpoint breakers are shared across shards.
func TestTopologyBackends(t *testing.T) {
	top := Topology{Endpoints: []string{"a:1", "b:1"}, Shards: 4, Replication: 2}
	backends := top.Backends()
	if len(backends) != 4 {
		t.Fatalf("got %d backends, want 4", len(backends))
	}
	seen := make(map[string]int)
	for _, b := range backends {
		g := b.(*Group)
		for _, c := range g.Replicas() {
			if c.cfg.Breaker == nil {
				t.Fatal("client missing endpoint breaker")
			}
			seen[c.cfg.Breaker.Name()]++
		}
	}
	if len(seen) != 2 {
		t.Fatalf("expected 2 shared endpoint breakers, got %v", seen)
	}
}
