package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"uniask/internal/index"
	"uniask/internal/trace"
)

// ServerConfig parameterizes a shard server.
type ServerConfig struct {
	// Index configures every hosted store (schema, BM25, vector backend).
	// It must match the facade's configuration — the wire carries
	// documents and queries, not configuration.
	Index index.Config
	// Segment tunes the hosted stores' segmented write path.
	Segment index.SegmentConfig
	// MaxFrame caps incoming frame payloads (0 = DefaultMaxFrame).
	MaxFrame int
	// Tracer, when set, records one server-side request span per RPC,
	// stamped with the caller's propagated trace id (queryable through the
	// server process's own /api/traces if it mounts one).
	Tracer *trace.Tracer
}

// Server hosts one or more logical index shards behind the wire protocol.
// Stores are created lazily by the first write, so placement is driven
// entirely by the clients: whichever shard ids a facade routes documents to
// come into existence here. A read never creates one. Safe for concurrent
// use; each accepted connection is served by its own goroutine against the
// shared stores (the segmented store's reader/writer concurrency contract
// covers cross-connection races).
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	stores map[int]*index.Segmented
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	// seen is a test seam: when set, handle reports every request's op to
	// it first.
	seen func(op)
}

// NewServer creates an idle server; call Start (or Serve) to accept
// connections.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg, stores: make(map[int]*index.Segmented), conns: make(map[net.Conn]struct{})}
}

// Store returns the hosted store for a logical shard id, creating it on
// first reference.
func (s *Server) Store(shard int) *index.Segmented { return s.store(shard, true) }

// store resolves a logical shard id. An id the server does not host is
// hosted from then on when create is set; otherwise store returns nil.
func (s *Server) store(shard int, create bool) *index.Segmented {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[shard]
	if !ok && create {
		st = index.NewSegmented(s.cfg.Index, s.cfg.Segment)
		s.stores[shard] = st
	}
	return st
}

// AdoptStore installs a pre-built store (e.g. restored from a snapshot at
// boot) as the given logical shard.
func (s *Server) AdoptStore(shard int, st *index.Segmented) {
	s.mu.Lock()
	s.stores[shard] = st
	s.mu.Unlock()
}

// Shards lists the hosted logical shard ids.
func (s *Server) Shards() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.stores))
	for id := range s.stores {
		out = append(out, id)
	}
	return out
}

// Start binds addr (use "127.0.0.1:0" for an ephemeral loopback port) and
// serves in the background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("remote: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.accept(ln)
	}()
	return nil
}

// Addr reports the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on a caller-provided listener until it is
// closed (tests drive loopback or in-memory listeners through this).
func (s *Server) Serve(ln net.Listener) {
	s.accept(ln)
}

// Close stops accepting, severs every live connection and waits for the
// connection goroutines to drain. Hosted stores stay intact (Save them
// first for a graceful replacement; see docs/OPERATIONS.md).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	for _, st := range s.allStores() {
		st.WaitCompaction()
	}
}

func (s *Server) allStores() []*index.Segmented {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*index.Segmented, 0, len(s.stores))
	for _, st := range s.stores {
		out = append(out, st)
	}
	return out
}

// accept runs the listener loop; it returns when the listener dies.
func (s *Server) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// handleConn validates the handshake, echoing the banner, and serves the
// connection. Any other banner, an older version's included, gets no echo
// and a closed connection.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	banner := make([]byte, len(Handshake))
	if _, err := io.ReadFull(conn, banner); err != nil || string(banner) != Handshake {
		return
	}
	if _, err := conn.Write(banner); err != nil {
		return
	}
	s.serve(conn)
}

// serve answers request frames until the stream fails or the peer hangs
// up. Requests on one connection are sequential (the client pools
// connections for concurrency), so responses never interleave.
func (s *Server) serve(rw io.ReadWriter) {
	c := newCodec()
	for {
		var req request
		payload, err := ReadFrame(rw, s.cfg.MaxFrame)
		if err == nil {
			err = c.decode(payload, &req)
		} else if !errors.Is(err, ErrFrameTooLarge) {
			return
		}
		if err != nil {
			// Tell the peer why before hanging up: an oversized frame left
			// the stream mid-payload, and an undecodable one left the
			// decoder's type state unknown.
			if out, encErr := c.encode(&response{Err: err.Error()}); encErr == nil {
				WriteFrame(rw, out)
			}
			return
		}
		out, err := c.encode(s.handle(&req))
		if err != nil || WriteFrame(rw, out) != nil {
			return
		}
	}
}

// handle dispatches one RPC against the target shard's store. The shard id
// is unvalidated network input: only a write (add, addBulk) may bring a
// store into existence, and a negative id is refused — as an application
// error, which leaves the caller's endpoint breaker alone.
func (s *Server) handle(req *request) (resp *response) {
	if s.cfg.Tracer != nil {
		_, treq := s.cfg.Tracer.StartRequest(context.Background(), "remote."+req.Op.String())
		if root := treq.Root(); root != nil {
			root.SetAttr("remote.traceId", req.TraceID)
			root.SetAttr("shard", strconv.Itoa(req.Shard))
		}
		defer treq.End()
	}
	defer func() {
		// A poisoned store must fail one RPC, not the whole server.
		if p := recover(); p != nil {
			resp = &response{Err: fmt.Sprintf("remote: %s panicked: %v", req.Op, p)}
		}
	}()
	if req.Shard < 0 {
		return &response{Err: fmt.Sprintf("remote: negative shard id %d", req.Shard)}
	}
	if s.seen != nil {
		s.seen(req.Op)
	}
	if req.Op == opPing {
		return &response{OK: true}
	}
	st := s.store(req.Shard, req.Op == opAdd || req.Op == opAddBulk)
	if st == nil {
		// A shard the server does not host. Presence, which a set-up asks
		// of every shard before its first write, and status are answered as
		// an empty store answers them, without building one (the shard id
		// is network input); any other read is served by a throwaway empty
		// store.
		switch req.Op {
		case opHasParents:
			return &response{Present: make([]bool, len(req.IDs))}
		case opStatus:
			return &response{Status: &shardStatus{}}
		}
		st = index.NewSegmented(s.cfg.Index, s.cfg.Segment)
	}
	switch req.Op {
	case opCollectStats:
		cs := st.CollectStats(req.Fields, req.Terms)
		return &response{Stats: &cs}
	case opSearchText:
		return &response{Hits: st.SearchText(req.Query, req.N, req.Opts)}
	case opSearchTextGlobal:
		stats := req.Stats
		if stats == nil {
			stats = &index.CorpusStats{}
		}
		return &response{Hits: st.SearchTextGlobal(req.Query, req.N, req.Opts, stats)}
	case opSearchVector:
		return &response{Hits: st.SearchVectorUnit(req.Field, req.Vector, req.K, req.Filters)}
	case opAdd:
		if len(req.Docs) != 1 {
			return &response{Err: fmt.Sprintf("remote: add wants 1 document, got %d", len(req.Docs))}
		}
		if err := st.Add(req.Docs[0]); err != nil {
			return &response{Err: err.Error()}
		}
		return &response{OK: true}
	case opAddBulk:
		n, err := st.AddBulkCounted(req.Docs)
		if err != nil {
			return &response{Err: err.Error(), N: n}
		}
		return &response{OK: true, N: n}
	case opDelete:
		return &response{OK: st.Delete(req.ID)}
	case opDeleteParent:
		return &response{N: st.DeleteParent(req.ID)}
	case opParentChunkIDs:
		return &response{IDs: st.ParentChunkIDs(req.ID)}
	case opHasParents:
		present, _ := st.HasParents(req.IDs)
		return &response{Present: present}
	case opDocByID:
		doc, ok := st.DocByID(req.ID)
		if !ok {
			return &response{OK: false}
		}
		return &response{OK: true, Doc: &doc}
	case opDocsByID:
		if len(req.IDs) == 0 {
			return &response{Err: "remote: docsByID wants at least one id"}
		}
		docs, _ := st.DocsByID(context.Background(), req.IDs)
		return &response{Docs: docs}
	case opDoc:
		if req.Ord < 0 || req.Ord >= st.Len() {
			return &response{Err: fmt.Sprintf("remote: ordinal %d out of range", req.Ord)}
		}
		doc := st.Doc(req.Ord)
		return &response{Doc: &doc}
	case opLiveDocs:
		return &response{Docs: st.LiveDocs()}
	case opStatus:
		return &response{Status: &shardStatus{
			StatsKey:   st.StatsKey(),
			Len:        st.Len(),
			LiveLen:    st.LiveLen(),
			Tombstones: st.Tombstones(),
			Stats:      st.Stats(),
			Segments:   st.SegmentStats(),
		}}
	case opPublish:
		st.Publish()
		return &response{OK: true}
	case opWaitCompaction:
		st.WaitCompaction()
		return &response{OK: true}
	case opSnapshot:
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			return &response{Err: err.Error()}
		}
		return &response{Snapshot: buf.Bytes()}
	}
	return &response{Err: fmt.Sprintf("remote: unknown op %d", uint8(req.Op))}
}
