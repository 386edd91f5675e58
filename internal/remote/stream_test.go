package remote

// The lifetime of a connection's gob stream: one codec per connection on
// both ends, a connection retired by any error on it or by a large frame,
// a handshake bounded by the caller's deadline, and version 1 peers
// refused in either direction.

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/rerank"
	"uniask/internal/search"
	"uniask/internal/shard"
)

// TestHandshakeHonoursRequestDeadline: an endpoint that accepts the
// connection and never sends the banner holds a request no longer than the
// request's own deadline, not for the 2 s dial timeout, and leaves no
// goroutine behind.
func TestHandshakeHonoursRequestDeadline(t *testing.T) {
	// Not startListener: it would start a goroutine per connection, and
	// this test counts goroutines.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		held  []net.Conn
		wg    sync.WaitGroup
		ready = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(ready)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn) // accepted, never answered
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
		for _, c := range held {
			c.Close()
		}
	})
	<-ready
	baseline := runtime.NumGoroutine()

	g := single(ln.Addr().String(), 0)
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = g.SearchText(ctx, "conto", 5, index.TextOptions{})
	if waited := time.Since(start); waited > 250*time.Millisecond {
		t.Errorf("a silent endpoint held a 50ms request for %v", waited)
	}
	if err == nil {
		t.Error("a search against a silent endpoint succeeded")
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the request (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("refused") }

// TestFailedStreamRetiresConnection: after a failed encode, a reply that
// does not decode, or a reply with bytes after its value, the connection
// is not pooled, and the next call dials a new one.
func TestFailedStreamRetiresConnection(t *testing.T) {
	ctx := context.Background()
	t.Run("encode", func(t *testing.T) {
		srv := startServer(t, ServerConfig{Index: testConfig()})
		c := NewClient(ClientConfig{Addr: srv.Addr()})
		defer c.Close()
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		first := idleConns(c)[0]
		first.codec.enc = gob.NewEncoder(failingWriter{})
		if err := c.Ping(ctx); err == nil || !strings.Contains(err.Error(), "encode") {
			t.Fatalf("ping through a failing encoder: %v, want an encode error", err)
		}
		if n := len(idleConns(c)); n != 0 {
			t.Fatalf("%d connections pooled after a failed encode", n)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		if idle := idleConns(c); len(idle) != 1 || idle[0] == first {
			t.Fatal("the call after a failed encode did not dial a new connection")
		}
	})
	for name, bad := range map[string]func(c *codec) []byte{
		"decode": func(*codec) []byte { return []byte{1, 2, 3} },
		"trailing bytes": func(c *codec) []byte {
			out, _ := c.encode(&response{OK: true})
			return append(out, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			// The first connection's first reply is bad; every other reply
			// is a clean ping answer.
			var dials atomic.Int32
			addr := startListener(t, func(conn net.Conn, _ <-chan struct{}) {
				first := dials.Add(1) == 1
				banner := make([]byte, len(Handshake))
				if _, err := io.ReadFull(conn, banner); err != nil {
					return
				}
				conn.Write(banner)
				c := newCodec()
				for {
					payload, err := ReadFrame(conn, 0)
					if err != nil {
						return
					}
					var req request
					if c.decode(payload, &req) != nil {
						return
					}
					out, _ := c.encode(&response{OK: true})
					if first {
						out, first = bad(c), false
					}
					if WriteFrame(conn, out) != nil {
						return
					}
				}
			})
			c := NewClient(ClientConfig{Addr: addr})
			defer c.Close()
			if err := c.Ping(ctx); err == nil {
				t.Fatal("a bad reply was accepted")
			}
			if n := len(idleConns(c)); n != 0 {
				t.Fatalf("%d connections pooled after a bad reply", n)
			}
			if err := c.Ping(ctx); err != nil {
				t.Fatal(err)
			}
			if n := dials.Load(); n != 2 {
				t.Fatalf("the endpoint saw %d connections, want a new one after the bad reply", n)
			}
		})
	}
}

// TestLargeFrameIsNotPooled: a bulk batch above maxPooledFrame goes through
// and its connection is retired; the next call dials a fresh one, which a
// small reply leaves in the pool.
func TestLargeFrameIsNotPooled(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	c := NewClient(ClientConfig{Addr: srv.Addr()})
	g := NewGroup([]*Client{c}, 0)
	defer g.Close()
	var batch []index.Document
	for size := 0; size <= maxPooledFrame; {
		d := testDoc(len(batch))
		d.Fields["content"] = strings.Repeat(d.Fields["content"]+" ", 40)
		size += len(d.Fields["content"])
		batch = append(batch, d)
	}
	if _, err := g.AddBulk(batch); err != nil {
		t.Fatal(err)
	}
	if n := len(idleConns(c)); n != 0 {
		t.Fatalf("the connection that carried a %d-document bulk batch was pooled", len(batch))
	}
	if got := g.Len(); got != len(batch) {
		t.Fatalf("shard holds %d documents, want %d", got, len(batch))
	}
	if n := len(idleConns(c)); n != 1 {
		t.Fatalf("%d connections pooled after a status read, want 1", n)
	}
}

// v1Banner is the handshake of the wire version before this one, which a
// server no longer speaks.
const v1Banner = "uniask-remote/1\n"

// TestServerRefusesV1: a version 1 client's banner gets no echo and a
// closed connection.
func TestServerRefusesV1(t *testing.T) {
	srv := startServer(t, ServerConfig{Index: testConfig()})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, v1Banner); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, len(v1Banner))); n != 0 || err != io.EOF {
		t.Fatalf("read after a version 1 banner: %d bytes, %v; want the connection closed unanswered", n, err)
	}
}

// TestV2FrontendRefusedByV1Server pins the other half of the rollout rule:
// a frontend that speaks version 2 in front of a shard server that only
// speaks version 1 is refused at the handshake, and the facade treats that
// shard as down — a degraded, uncached answer holding the other shard's
// hits, never an error.
func TestV2FrontendRefusedByV1Server(t *testing.T) {
	cfg := testConfig()
	current := startServer(t, ServerConfig{Index: cfg})
	// A version 1 server hangs up on any banner but its own.
	oldAddr := startListener(t, func(conn net.Conn, _ <-chan struct{}) {
		banner := make([]byte, len(v1Banner))
		if _, err := io.ReadFull(conn, banner); err == nil && string(banner) == v1Banner {
			conn.Write(banner)
		}
	})
	ctx := context.Background()
	if err := single(oldAddr, 1).Replicas()[0].Ping(ctx); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("ping of a version 1 server: %v, want ErrBadHandshake", err)
	}

	facade := shard.NewWithBackends(shard.Config{Index: cfg}, []shard.Backend{single(current.Addr(), 0), single(oldAddr, 1)})
	defer facade.Close()
	emb := embedding.NewSynth(8, nil)
	if err := facade.AddBulk(embeddedDocs(emb, 40)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("ingest with one shard on a version 1 server: %v, want ErrBadHandshake", err)
	}
	facade.Publish()
	if current.Store(0).LiveLen() == 0 {
		t.Fatal("the current shard took no documents")
	}
	cache := search.NewQueryCache(8)
	s := &search.Searcher{Index: facade, Embedder: emb, Reranker: rerank.New(), Cache: cache}
	hits, err := s.SearchDegraded(ctx, "istruzioni operative conto corrente", search.Options{})
	if err != nil {
		t.Fatalf("search with one shard on a version 1 server errored: %v", err)
	}
	res, deg := hits.Results, hits.Degradation
	if deg.ShardsDown != 1 {
		t.Fatalf("version 1 server not reported as a shard outage: %+v", deg)
	}
	if len(res) == 0 {
		t.Fatal("the current shard's hits were lost too")
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Fatalf("the degraded answer was cached (%d entries)", n)
	}
}
