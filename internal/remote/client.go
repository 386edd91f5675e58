package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"uniask/internal/index"
	"uniask/internal/resilience"
	"uniask/internal/shard"
	"uniask/internal/trace"
	"uniask/internal/vector"
)

// ClientConfig parameterizes one remote-shard client.
type ClientConfig struct {
	// Addr is the shard server's host:port.
	Addr string
	// Shard is the logical shard id this client addresses on the server.
	Shard int
	// DialTimeout bounds connection establishment plus the handshake
	// (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds a single RPC when the caller's context carries no
	// tighter deadline (default 30s — generous because bulk ingest and
	// snapshot transfers ride the same path; query deadlines come from the
	// caller's per-shard context).
	CallTimeout time.Duration
	// StatusTimeout bounds the background status refresh that feeds
	// StatsKey/gauges (default 2s — these run on the query hot path
	// and must fail fast so the cached fallback kicks in).
	StatusTimeout time.Duration
	// MaxFrame caps response frames (0 = DefaultMaxFrame).
	MaxFrame int
	// MaxIdle caps pooled idle connections (default 4).
	MaxIdle int
	// Breaker guards the endpoint. It is shared by every client addressing
	// the same endpoint (one breaker per remote endpoint, not per shard), so
	// an unreachable server is shed for all shards placed on it at once.
	// Only transport failures are recorded; application errors travel inside
	// healthy responses and say nothing about the endpoint.
	Breaker *resilience.Breaker
}

// Client speaks the wire protocol to one logical shard on one shard server
// and implements the facade's per-shard Backend surface. Dialing is lazy:
// constructing a client never touches the network, so a facade can boot
// while its shard servers are still coming up. Safe for concurrent use; a
// small connection pool backs concurrent RPCs.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	idle   []net.Conn
	closed bool

	// Last successfully fetched status. Served when the endpoint is
	// unreachable so cache keys and gauges hold their last-known (monotone)
	// values through an outage instead of collapsing to zero.
	statusMu   sync.Mutex
	lastStatus shardStatus
}

var _ shard.Backend = (*Client)(nil)

// NewClient creates a client for one logical shard on addr. No connection
// is opened until the first RPC.
func NewClient(cfg ClientConfig) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if cfg.StatusTimeout <= 0 {
		cfg.StatusTimeout = 2 * time.Second
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = 4
	}
	return &Client{cfg: cfg}
}

// Addr reports the configured endpoint.
func (c *Client) Addr() string { return c.cfg.Addr }

// Close drains the connection pool. In-flight RPCs on checked-out
// connections finish; their connections are not re-pooled.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}

// call runs one RPC: breaker admission, transport, breaker outcome, then
// application-error unwrapping. The span is the client half of the
// cross-process trace; the server stamps the propagated id on its own span.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	ctx, sp := trace.Start(ctx, "remote.rpc",
		trace.A("endpoint", c.cfg.Addr),
		trace.A("op", req.Op.String()),
		trace.A("shard", strconv.Itoa(c.cfg.Shard)))
	defer sp.End()
	req.Shard = c.cfg.Shard
	req.TraceID = trace.ContextID(ctx)
	if b := c.cfg.Breaker; b != nil {
		if err := b.Allow(); err != nil {
			err = fmt.Errorf("remote: %s: %w", c.cfg.Addr, err)
			sp.SetError(err)
			return nil, err
		}
	}
	resp, err := c.do(ctx, req)
	if b := c.cfg.Breaker; b != nil {
		b.RecordCtx(ctx, err)
	}
	if err == nil && resp.Err != "" {
		err = fmt.Errorf("remote: %s %s: %s", c.cfg.Addr, req.Op, resp.Err)
	}
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	return resp, nil
}

// do performs the transport round trip on a pooled connection. Any
// transport error retires the connection (a half-written frame poisons the
// stream); only clean round trips return to the pool.
func (c *Client) do(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, err := encodeFrame(req)
	if err != nil {
		return nil, fmt.Errorf("remote: encode %s: %w", req.Op, err)
	}
	conn, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.cfg.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	// Cancellation poisons the connection deadline so a blocked read aborts
	// promptly — this is what lets hedged losers die as soon as a replica
	// wins.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	resp, err := func() (*response, error) {
		if err := WriteFrame(conn, payload); err != nil {
			return nil, err
		}
		raw, err := ReadFrame(conn, c.cfg.MaxFrame)
		if err != nil {
			return nil, err
		}
		return decodeResponse(raw)
	}()
	stopped := stop()
	if err != nil {
		conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The I/O error is just the poisoned deadline observed; report
			// the cancellation itself (which the breaker ignores).
			err = ctxErr
		}
		return nil, fmt.Errorf("remote: %s %s: %w", c.cfg.Addr, req.Op, err)
	}
	if !stopped {
		// The round trip finished, but cancellation fired while it was
		// completing: the watcher may poison the deadline at any moment
		// (stop does not wait for a started callback), so the connection
		// must not reach the pool. The response itself is good.
		conn.Close()
		return resp, nil
	}
	conn.SetDeadline(time.Time{})
	c.putConn(conn)
	return resp, nil
}

// conn checks out an idle connection or dials a new one.
func (c *Client) conn(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: %s: client closed", c.cfg.Addr)
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return c.dial(ctx)
}

// putConn returns a healthy connection to the pool (or closes it when the
// pool is full or the client is closed).
func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.cfg.MaxIdle {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}

// dial opens a connection and exchanges the protocol handshake.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.cfg.Addr, err)
	}
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if _, err := io.WriteString(conn, Handshake); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake %s: %w", c.cfg.Addr, err)
	}
	banner := make([]byte, len(Handshake))
	if _, err := io.ReadFull(conn, banner); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: handshake %s: %w", c.cfg.Addr, err)
	}
	if string(banner) != Handshake {
		conn.Close()
		return nil, fmt.Errorf("remote: %s: %w", c.cfg.Addr, ErrBadHandshake)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// background returns the default context for RPCs whose Backend signature
// carries none (writes, gauges, lifecycle).
func (c *Client) background() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.cfg.CallTimeout)
}

// ---- Backend: writes ----

// Add implements shard.Backend.
func (c *Client) Add(doc index.Document) error {
	ctx, cancel := c.background()
	defer cancel()
	_, err := c.call(ctx, &request{Op: opAdd, Docs: []index.Document{doc}})
	return err
}

// AddBulk implements shard.Backend.
func (c *Client) AddBulk(docs []index.Document) error {
	if len(docs) == 0 {
		return nil
	}
	ctx, cancel := c.background()
	defer cancel()
	_, err := c.call(ctx, &request{Op: opAddBulk, Docs: docs})
	return err
}

// Delete implements shard.Backend. An unreachable endpoint reports false
// (nothing observably deleted).
func (c *Client) Delete(chunkID string) bool {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opDelete, ID: chunkID})
	return err == nil && resp.OK
}

// DeleteParent implements shard.Backend.
func (c *Client) DeleteParent(parentID string) int {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opDeleteParent, ID: parentID})
	if err != nil {
		return 0
	}
	return resp.N
}

// ParentChunkIDs implements shard.Backend.
func (c *Client) ParentChunkIDs(parentID string) []string {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opParentChunkIDs, ID: parentID})
	if err != nil {
		return nil
	}
	return resp.IDs
}

// HasParent implements shard.Backend.
func (c *Client) HasParent(parentID string) bool {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opHasParent, ID: parentID})
	return err == nil && resp.OK
}

// ---- Backend: queries ----

// CollectStats implements shard.Backend.
func (c *Client) CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error) {
	resp, err := c.call(ctx, &request{Op: opCollectStats, Fields: fields, Terms: terms})
	if err != nil {
		return index.CorpusStats{}, err
	}
	if resp.Stats == nil {
		return index.CorpusStats{}, fmt.Errorf("remote: %s: empty stats response", c.cfg.Addr)
	}
	return *resp.Stats, nil
}

// SearchText implements shard.Backend.
func (c *Client) SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error) {
	resp, err := c.call(ctx, &request{Op: opSearchText, Query: query, N: n, Opts: opts})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// SearchTextGlobal implements shard.Backend.
func (c *Client) SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error) {
	resp, err := c.call(ctx, &request{Op: opSearchTextGlobal, Query: query, N: n, Opts: opts, Stats: stats})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// SearchVectorUnit implements shard.Backend.
func (c *Client) SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error) {
	resp, err := c.call(ctx, &request{Op: opSearchVector, Field: field, Vector: q, K: k, Filters: filters})
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// DocByID implements shard.Backend.
func (c *Client) DocByID(id string) (index.Document, bool) {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opDocByID, ID: id})
	if err != nil || !resp.OK || resp.Doc == nil {
		return index.Document{}, false
	}
	return *resp.Doc, true
}

// DocsByID implements shard.Backend: one RPC for the whole batch, on the
// caller's context (request deadline and trace), still capped by CallTimeout
// in do. A reply that does not align with ids is refused rather than
// scattered into the wrong slots.
func (c *Client) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	resp, err := c.call(ctx, &request{Op: opDocsByID, IDs: ids})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) != len(ids) {
		return nil, fmt.Errorf("remote: %s docsByID: %d documents for %d ids", c.cfg.Addr, len(resp.Docs), len(ids))
	}
	return resp.Docs, nil
}

// ---- Backend: staleness signals and gauges ----

// status fetches a fresh combined status and caches it as the last-known
// good value.
func (c *Client) status() (shardStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.StatusTimeout)
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opStatus})
	if err != nil {
		return shardStatus{}, err
	}
	if resp.Status == nil {
		return shardStatus{}, fmt.Errorf("remote: %s: empty status response", c.cfg.Addr)
	}
	c.statusMu.Lock()
	c.lastStatus = *resp.Status
	c.statusMu.Unlock()
	return *resp.Status, nil
}

// statusOrCached fetches a fresh status, falling back to the cached
// last-known one when the endpoint is unreachable. Stats keys only ever grow
// on the server, so the cached fallback keeps the facade's cache keys
// monotone through an outage.
func (c *Client) statusOrCached() shardStatus {
	if st, err := c.status(); err == nil {
		return st
	}
	c.statusMu.Lock()
	defer c.statusMu.Unlock()
	return c.lastStatus
}

// StatsKey implements shard.Backend.
func (c *Client) StatsKey() uint64 { return c.statusOrCached().StatsKey }

// Len implements shard.Backend.
func (c *Client) Len() int { return c.statusOrCached().Len }

// LiveLen implements shard.Backend.
func (c *Client) LiveLen() int { return c.statusOrCached().LiveLen }

// Tombstones implements shard.Backend.
func (c *Client) Tombstones() int { return c.statusOrCached().Tombstones }

// Stats implements shard.Backend.
func (c *Client) Stats() index.Stats { return c.statusOrCached().Stats }

// SegmentStats implements shard.Backend.
func (c *Client) SegmentStats() index.SegmentStats { return c.statusOrCached().Segments }

// ---- Backend: lifecycle and bulk access ----

// Doc implements shard.Backend. Ordinal access is a diagnostics/migration
// path; an unreachable endpoint yields a zero document.
func (c *Client) Doc(ord int) index.Document {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opDoc, Ord: ord})
	if err != nil || resp.Doc == nil {
		return index.Document{}
	}
	return *resp.Doc
}

// LiveDocs implements shard.Backend.
func (c *Client) LiveDocs() []index.Document {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opLiveDocs})
	if err != nil {
		return nil
	}
	return resp.Docs
}

// Publish implements shard.Backend.
func (c *Client) Publish() {
	ctx, cancel := c.background()
	defer cancel()
	c.call(ctx, &request{Op: opPublish})
}

// WaitCompaction implements shard.Backend.
func (c *Client) WaitCompaction() {
	ctx, cancel := c.background()
	defer cancel()
	c.call(ctx, &request{Op: opWaitCompaction})
}

// Save implements shard.Backend: the server snapshots the shard and ships
// the bytes back in one frame.
func (c *Client) Save(w io.Writer) error {
	ctx, cancel := c.background()
	defer cancel()
	resp, err := c.call(ctx, &request{Op: opSnapshot})
	if err != nil {
		return err
	}
	if _, err := w.Write(resp.Snapshot); err != nil {
		return fmt.Errorf("remote: write snapshot: %w", err)
	}
	return nil
}

// Ping round-trips a no-op RPC (connectivity probes, smoke tests).
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &request{Op: opPing})
	return err
}

// breakerState reports the endpoint breaker's current state (Closed when
// unguarded); the replica group orders hedged attempts with it.
func (c *Client) breakerState() resilience.State {
	if c.cfg.Breaker == nil {
		return resilience.Closed
	}
	return c.cfg.Breaker.State()
}
