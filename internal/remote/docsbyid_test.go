package remote

// The batched document fetch on the wire: it runs on the caller's context
// (deadline, cancellation, trace), refuses malformed traffic in both
// directions, and meets a shard server that predates the op as a shard
// outage rather than an error.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/rerank"
	"uniask/internal/resilience"
	"uniask/internal/search"
	"uniask/internal/shard"
	"uniask/internal/trace"
)

// startListener accepts loopback connections and hands each to serve on its
// own goroutine. At the end of the test it stops accepting, closes every
// accepted connection, closes done and waits for the serve calls.
func startListener(t *testing.T, serve func(conn net.Conn, done <-chan struct{})) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn, done)
			}()
		}
	}()
	return ln.Addr().String()
}

// startStub serves the current wire protocol (one codec per connection)
// with a caller-supplied reply function, standing in for shard servers
// that misbehave in ways the real one never does. A nil reply leaves the
// RPC unanswered until the test ends.
func startStub(t *testing.T, reply func(*request) *response) string {
	t.Helper()
	return startListener(t, func(conn net.Conn, done <-chan struct{}) {
		banner := make([]byte, len(Handshake))
		if _, err := io.ReadFull(conn, banner); err != nil || string(banner) != Handshake {
			return
		}
		if _, err := io.WriteString(conn, Handshake); err != nil {
			return
		}
		c := newCodec()
		for {
			payload, err := ReadFrame(conn, 0)
			if err != nil {
				return
			}
			var req request
			if err := c.decode(payload, &req); err != nil {
				return
			}
			resp := reply(&req)
			if resp == nil {
				<-done
				return
			}
			out, err := c.encode(resp)
			if err != nil || WriteFrame(conn, out) != nil {
				return
			}
		}
	})
}

// TestDocsByIDCarriesRequestContext: the batched fetch rides the caller's
// context. Cancelling the request aborts a fetch stuck on a hung shard
// server at once (not after CallTimeout), and the RPC's client span hangs
// off the request's trace, whose id crosses the wire.
func TestDocsByIDCarriesRequestContext(t *testing.T) {
	arrived := make(chan string, 2) // one send per replica, never blocks the stub
	addr := startStub(t, func(req *request) *response {
		if req.Op == opDocsByID {
			arrived <- req.TraceID
			return nil
		}
		return &response{OK: true}
	})
	replicas := []*Client{
		NewClient(ClientConfig{Addr: addr, Shard: 0, CallTimeout: time.Minute}),
		NewClient(ClientConfig{Addr: addr, Shard: 0, CallTimeout: time.Minute}),
	}
	g := NewGroup(replicas, time.Hour) // no latency hedge: one RPC in flight
	defer g.Close()

	tracer := trace.New(trace.Config{})
	ctx, treq := tracer.StartRequest(context.Background(), "ask")
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := g.DocsByID(ctx, []string{"kb00001#0", "kb00002#0"})
		errc <- err
	}()
	if got := <-arrived; got != treq.TraceID() {
		t.Errorf("shard server saw trace id %q, the request's is %q", got, treq.TraceID())
	}
	cancelled := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled fetch returned %v, want context.Canceled", err)
		}
		if waited := time.Since(cancelled); waited > 2*time.Second {
			t.Errorf("cancelled fetch took %v to return", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fetch still blocked after 10s: the request context did not reach the RPC")
	}

	// The RPC's span was opened before the request reached the stub, so it
	// is in the trace even if its goroutine is still unwinding.
	treq.End()
	td, ok := tracer.Store().Get(treq.TraceID())
	if !ok {
		t.Fatal("request trace was not retained")
	}
	// One replica, no hedge: the fetch is the trace's only remote.rpc span.
	rpc, ok := td.SpanByName("remote.rpc")
	if !ok {
		t.Fatal("no remote.rpc span in the request's trace")
	}
	op := ""
	for _, a := range rpc.Attrs {
		if a.Key == "op" {
			op = a.Value
		}
	}
	if op != "docsByID" {
		t.Errorf("remote.rpc span op = %q, want docsByID", op)
	}
	if rpc.Parent != treq.Root().SpanID {
		t.Errorf("remote.rpc span parent = %d, want the request root %d", rpc.Parent, treq.Root().SpanID)
	}
}

// TestHedgeEventOnEscalation: a read that goes past its preferred replica
// says so in the request's trace. The "hedge" event sits on the caller's
// span, the parent of the attempts' remote.rpc spans, and names the
// endpoint escalated to and whether a failure or the hedge delay caused it.
func TestHedgeEventOnEscalation(t *testing.T) {
	live := startServer(t, ServerConfig{Index: testConfig()})
	deadSrv := startServer(t, ServerConfig{Index: testConfig()})
	deadAddr := deadSrv.Addr()
	deadSrv.Close()
	hungAddr := startStub(t, func(*request) *response { return nil })

	for _, tc := range []struct {
		cause, preferred string
		hedgeDelay       time.Duration
	}{
		{cause: "failure", preferred: deadAddr, hedgeDelay: time.Hour},
		{cause: "delay", preferred: hungAddr, hedgeDelay: time.Millisecond},
	} {
		g := NewGroup([]*Client{
			NewClient(ClientConfig{Addr: tc.preferred, Shard: 0, DialTimeout: 500 * time.Millisecond}),
			NewClient(ClientConfig{Addr: live.Addr(), Shard: 0}),
		}, tc.hedgeDelay)
		tracer := trace.New(trace.Config{})
		ctx, treq := tracer.StartRequest(context.Background(), "ask")
		ctx, fetch := trace.Start(ctx, "shard.fetch")
		// Two reads: the rotation prefers each replica once.
		for i := 0; i < 2; i++ {
			if _, err := g.SearchText(ctx, "conto", 5, index.TextOptions{}); err != nil {
				t.Fatalf("%s: read did not fail over: %v", tc.cause, err)
			}
		}
		fetch.End()
		treq.End()
		g.Close()
		td, ok := tracer.Store().Get(treq.TraceID())
		if !ok {
			t.Fatalf("%s: request trace was not retained", tc.cause)
		}
		found := false
		for _, sp := range td.Spans {
			if sp.Name == "remote.rpc" && sp.Parent != fetch.SpanID {
				t.Errorf("%s: remote.rpc span parent = %d, want the caller's span %d", tc.cause, sp.Parent, fetch.SpanID)
			}
			for _, ev := range sp.Events {
				if ev.Name != "hedge" {
					continue
				}
				if sp.SpanID != fetch.SpanID {
					t.Errorf("%s: hedge event on span %q, want the caller's span", tc.cause, sp.Name)
				}
				attrs := map[string]string{}
				for _, a := range ev.Attrs {
					attrs[a.Key] = a.Value
				}
				if attrs["cause"] == tc.cause && attrs["endpoint"] == live.Addr() {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no hedge event with cause=%s endpoint=%s in the trace", tc.cause, live.Addr())
		}
	}
}

// TestDocsByIDRejectsMalformed: an empty batch is refused by the server and
// a reply that does not line up with the ids is refused by the client, both
// with errors that name the problem; neither panics or hands back documents
// in the wrong slots.
func TestDocsByIDRejectsMalformed(t *testing.T) {
	ctx := context.Background()
	srv := startServer(t, ServerConfig{Index: testConfig()})
	g := single(srv.Addr(), 0)
	defer g.Close()
	if _, err := g.replicas[0].call(ctx, request{Op: opDocsByID}); err == nil || !strings.Contains(err.Error(), "at least one id") {
		t.Errorf("empty IDs: got %v, want the server's 'at least one id' refusal", err)
	}
	// The group itself never sends an empty batch.
	if docs, err := g.DocsByID(ctx, nil); err != nil || len(docs) != 0 {
		t.Errorf("DocsByID(nil) = %v, %v", docs, err)
	}

	short := single(startStub(t, func(*request) *response {
		return &response{Docs: []index.Document{testDoc(1)}}
	}), 0)
	defer short.Close()
	docs, err := short.DocsByID(ctx, []string{"kb00001#0", "kb00002#0"})
	if err == nil || !strings.Contains(err.Error(), "1 documents for 2 ids") {
		t.Errorf("short reply: got %v, want a length-mismatch error", err)
	}
	if docs != nil {
		t.Errorf("short reply still returned documents: %v", docs)
	}
}

// embeddedDocs is n test documents whose vectors emb computed from their
// text, so a searcher embedding queries with emb finds them.
func embeddedDocs(emb *embedding.Synth, n int) []index.Document {
	docs := make([]index.Document, n)
	for i := range docs {
		d := testDoc(i)
		d.Vectors["titleVector"] = emb.Embed(d.Fields["title"])
		d.Vectors["contentVector"] = emb.Embed(d.Fields["content"])
		docs[i] = d
	}
	return docs
}

// TestDocsByIDOldServerIsShardDown pins the mixed-version behaviour: a
// shard server that predates opDocsByID answers "unknown op", and the
// frontend treats that shard as down for the fetch — a degraded, uncached
// result holding the other shards' hits, never an error — until the server
// is upgraded. There is no per-id fallback.
func TestDocsByIDOldServerIsShardDown(t *testing.T) {
	cfg := testConfig()
	current := startServer(t, ServerConfig{Index: cfg})
	// The old server is a real one with the new op cut out of its dispatch.
	var upgraded atomic.Bool
	oldStore := NewServer(ServerConfig{Index: cfg})
	oldAddr := startStub(t, func(req *request) *response {
		if req.Op == opDocsByID && !upgraded.Load() {
			return &response{Err: fmt.Sprintf("remote: unknown op %d", uint8(req.Op))}
		}
		return oldStore.handle(req)
	})
	const oldShard = 1
	backends := make([]shard.Backend, 2)
	for i, addr := range []string{current.Addr(), oldAddr} {
		backends[i] = NewGroup([]*Client{NewClient(ClientConfig{
			Addr: addr, Shard: i,
			Breaker: resilience.NewBreaker(resilience.BreakerConfig{Name: "remote:" + addr}),
		})}, 0)
	}
	facade := shard.NewWithBackends(shard.Config{Index: cfg}, backends)
	defer facade.Close()

	emb := embedding.NewSynth(8, nil)
	if err := facade.AddBulk(embeddedDocs(emb, 40)); err != nil {
		t.Fatal(err)
	}
	facade.Publish()
	s := &search.Searcher{Index: facade, Embedder: emb, Reranker: rerank.New(), Cache: search.NewQueryCache(8)}
	const query = "istruzioni operative conto corrente"
	hits, err := s.SearchDegraded(context.Background(), query, search.Options{})
	if err != nil {
		t.Fatalf("search against an old shard server errored: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if deg.ShardsDown != 1 {
		t.Fatalf("old shard server not reported as a shard outage: %+v", deg)
	}
	if len(res) == 0 {
		t.Fatal("the current shard's hits were lost too")
	}
	for _, r := range res {
		if facade.ShardFor(r.ChunkID) == oldShard {
			t.Fatalf("result %s came from the shard that cannot serve the fetch", r.ChunkID)
		}
	}
	// "unknown op" is an application answer from a healthy endpoint: it
	// must not open the endpoint's breaker and take the search legs down.
	for _, st := range facade.Breakers() {
		if st.State != "closed" {
			t.Errorf("breaker %s is %s after unknown-op replies", st.Name, st.State)
		}
	}

	// The shard server is upgraded: same query, full result, not a replay
	// of the degraded one.
	upgraded.Store(true)
	hits, err = s.SearchDegraded(context.Background(), query, search.Options{})
	full, deg := hits.Results, hits.Degradation
	if err != nil || deg.Degraded() {
		t.Fatalf("after the upgrade: deg=%+v err=%v", deg, err)
	}
	if len(full) <= len(res) {
		t.Fatalf("after the upgrade %d results, degraded run had %d", len(full), len(res))
	}
}
