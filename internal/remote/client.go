package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"uniask/internal/resilience"
	"uniask/internal/trace"
)

// Transport constants. Every process runs these values: the status read
// sits on the query hot path (StatsKey) and must fail fast so the cached
// fallback kicks in; response frames are capped at DefaultMaxFrame.
const (
	defaultDialTimeout = 2 * time.Second
	defaultCallTimeout = 30 * time.Second
	statusTimeout      = 2 * time.Second
	maxIdleConns       = 4
)

// ClientConfig parameterizes the transport to one endpoint.
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
	// Breaker guards the endpoint. It is shared by every client addressing
	// the same endpoint (one breaker per remote endpoint, not per shard), so
	// an unreachable server is shed for all shards placed on it at once.
	// Only transport failures are recorded; application errors travel inside
	// healthy responses and say nothing about the endpoint.
	Breaker *resilience.Breaker
}

// Client is the transport to one logical shard on one shard server: the
// RPC round trip, a small connection pool and the last-known status. It is
// not a shard.Backend — a Group is, and a lone endpoint is a one-replica
// Group. Dialing is lazy: constructing a client never touches the network,
// so a facade can boot while its shard servers are still coming up. Safe
// for concurrent use.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	idle   []*clientConn
	closed bool

	// Last successfully fetched status. Served when the endpoint is
	// unreachable so cache keys and gauges hold their last-known (monotone)
	// values through an outage instead of collapsing to zero.
	statusMu   sync.Mutex
	lastStatus shardStatus
}

// NewClient creates a client for one logical shard on addr. No connection
// is opened until the first RPC.
func NewClient(cfg ClientConfig) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	return &Client{cfg: cfg}
}

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
// application-error unwrapping. An application error comes back beside the
// reply that carried it (a refused bulk add still says how many documents
// it applied); a transport error comes back alone. The span is the client
// half of the cross-process trace; the server stamps the propagated id on
// its own span. The request arrives by value and is stamped here, so
// concurrent attempts of one hedged read never share a mutable envelope.
func (c *Client) call(ctx context.Context, req request) (*response, error) {
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
	resp, err := c.do(ctx, &req)
	if b := c.cfg.Breaker; b != nil {
		b.RecordCtx(ctx, err)
	}
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	if resp.Err != "" {
		err = fmt.Errorf("remote: %s %s: %s", c.cfg.Addr, req.Op, resp.Err)
		sp.SetError(err)
		return resp, err
	}
	return resp, nil
}

// clientConn is a connection and the codec that has spoken on it since
// the handshake; they are pooled and retired together.
type clientConn struct {
	net.Conn
	codec *codec
}

// roundTrip sends req as one frame and decodes the reply frame into resp.
// It reports the larger of the two payloads.
func (cc *clientConn) roundTrip(req *request, resp *response) (int, error) {
	out, err := cc.codec.encode(req)
	if err != nil {
		return 0, err
	}
	if err := WriteFrame(cc, out); err != nil {
		return 0, err
	}
	in, err := ReadFrame(cc, DefaultMaxFrame)
	if err != nil {
		return 0, err
	}
	return max(len(out), len(in)), cc.codec.decode(in, resp)
}

// do performs the transport round trip on a pooled connection. Any error
// retires the connection (a half-written frame poisons the stream, and a
// failed encode or decode leaves the codec's type state out of step with
// the peer's); only clean round trips return to the pool.
func (c *Client) do(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
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
	var resp response
	largest, err := conn.roundTrip(req, &resp)
	stopped := stop()
	if err != nil {
		conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The I/O error is just the poisoned deadline observed; report
			// the cancellation itself (which is neutral to the breaker).
			err = ctxErr
		}
		return nil, fmt.Errorf("remote: %s %s: %w", c.cfg.Addr, req.Op, err)
	}
	if !stopped || largest > maxPooledFrame {
		// The response is good, but the connection must not reach the pool:
		// either cancellation fired while the round trip was completing (the
		// watcher may poison the deadline at any moment; stop does not wait
		// for a started callback), or its codecs now hold a large frame's
		// buffers. The server drops its end when it reads EOF.
		conn.Close()
		return &resp, nil
	}
	conn.SetDeadline(time.Time{})
	c.putConn(conn)
	return &resp, nil
}

// conn checks out an idle connection or dials a new one.
func (c *Client) conn(ctx context.Context) (*clientConn, error) {
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
func (c *Client) putConn(conn *clientConn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= maxIdleConns {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}

// dial opens a connection and exchanges the protocol handshake. Connect
// and handshake are bounded together by DialTimeout, or by the caller's
// deadline when that is sooner, and cancelling ctx aborts either.
func (c *Client) dial(ctx context.Context) (*clientConn, error) {
	deadline := time.Now().Add(c.cfg.DialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.cfg.Addr, err)
	}
	conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	err = handshake(conn)
	// A stop that comes too late means ctx is done and the deadline is, or
	// is about to be, poisoned: the connection is unusable either way.
	if !stop() || err != nil {
		conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return nil, fmt.Errorf("remote: handshake %s: %w", c.cfg.Addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &clientConn{Conn: conn, codec: newCodec()}, nil
}

// handshake sends the banner and checks the echo. A peer that reads the
// banner and hangs up without one (what a server that predates this
// version does) does not speak the protocol either.
func handshake(conn net.Conn) error {
	if _, err := io.WriteString(conn, Handshake); err != nil {
		return err
	}
	banner := make([]byte, len(Handshake))
	if _, err := io.ReadFull(conn, banner); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: peer hung up", ErrBadHandshake)
		}
		return err
	}
	if string(banner) != Handshake {
		return fmt.Errorf("%w: peer answered %q", ErrBadHandshake, banner)
	}
	return nil
}

// status fetches the shard's combined staleness/gauge snapshot, falling
// back to the last successfully fetched one when the endpoint is
// unreachable. Stats keys only ever grow on the server, so the fallback
// keeps the facade's cache keys monotone through an outage.
func (c *Client) status() shardStatus {
	// Detached: the gauge methods of the frozen shard.Backend interface
	// (StatsKey, Len, ...) carry no caller context.
	ctx, cancel := context.WithTimeout(context.Background(), statusTimeout)
	defer cancel()
	resp, err := c.call(ctx, request{Op: opStatus})
	c.statusMu.Lock()
	defer c.statusMu.Unlock()
	if err == nil && resp.Status != nil {
		c.lastStatus = *resp.Status
	}
	return c.lastStatus
}

// Ping round-trips a no-op RPC (connectivity probes, smoke tests).
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, request{Op: opPing})
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
