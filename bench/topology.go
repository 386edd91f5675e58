package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"uniask/internal/core"
	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/pipeline"
	"uniask/internal/remote"
	"uniask/internal/server"
	"uniask/internal/shard"
)

// Topology names. The benchmark sets topology only: every engine is built
// from the zero configuration (the paper's deployed one: hybrid retrieval
// with n=50/K=15/c=60, semantic rerank, M=4, tracing on, 512-entry cache)
// plus the corpus lexicon, which is what uniask.NewFromCorpus does too.
const (
	topoSingle  = "single"
	topoRemote4 = "remote4"
)

const (
	remoteShards      = 4
	remoteReplication = 2
)

// corpusSeed pins the knowledge base and the labelled sample of the quality
// gate. The benchmark's seed drives the traffic only — which questions, in
// which order, which pages the writer edits — so set-up time, heap size and
// hit@4 compare exactly between runs, and two runs with different seeds
// differ in what users asked, not in what the bank published.
const corpusSeed = 1

// pageSource is the knowledge-base backend the poller reads. The ingest
// writer replaces the page list wholesale, so a pass that is iterating the
// previous list is never disturbed.
type pageSource struct {
	mu    sync.Mutex
	pages []ingest.Page
}

func newPageSource(corpus *kb.Corpus) *pageSource {
	pages := make([]ingest.Page, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	return &pageSource{pages: pages}
}

// Pages implements ingest.Source.
func (s *pageSource) Pages() []ingest.Page {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// update swaps in a page list derived from the current one.
func (s *pageSource) update(fn func(pages []ingest.Page) []ingest.Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = fn(append([]ingest.Page(nil), s.pages...))
}

// topology is one served system: engine, REST server on a loopback
// listener and, for remote4, the shard servers behind it.
type topology struct {
	name    string
	corpus  *kb.Corpus
	eng     *core.Engine
	baseURL string
	rec     *recorder // nil on an untraced build

	// source and poll exist on single only: the corpus was ingested by the
	// poller's first pass, so later passes index only what changed.
	source *pageSource
	poll   func() (int, error)

	httpSrv      *http.Server
	served       chan struct{}
	shardServers []*remote.Server
	cancel       context.CancelFunc
}

// stores lists every segmented store behind the topology, replicas
// included — the set that must be quiescent before timing starts.
func (t *topology) stores() []*index.Segmented {
	if s, ok := t.eng.Index.(*index.Segmented); ok {
		return []*index.Segmented{s}
	}
	var out []*index.Segmented
	for _, srv := range t.shardServers {
		for _, id := range srv.Shards() {
			out = append(out, srv.Store(id))
		}
	}
	return out
}

// storeTotals sums the segment gauges over every store.
func (t *topology) storeTotals() index.SegmentStats {
	var sum index.SegmentStats
	for _, s := range t.stores() {
		st := s.SegmentStats()
		sum.Segments += st.Segments
		sum.Seals += st.Seals
		sum.Compactions += st.Compactions
		sum.Backlog += st.Backlog
	}
	return sum
}

// quiesce waits until no store is compacting or owes a compaction.
func (t *topology) quiesce() {
	for {
		owed := false
		for _, s := range t.stores() {
			s.WaitCompaction()
			if s.SegmentStats().Backlog > 0 {
				owed = true
				s.Publish() // restarts the compactor on the remaining backlog
			}
		}
		if !owed {
			return
		}
	}
}

// buildTopology generates nothing: it ingests corpus into a fresh engine of
// the named topology, waits for the stores to go quiet and for the HTTP
// listener to answer /healthz. With rec set the decorators of trace.go are
// installed at the program's seams.
func buildTopology(ctx context.Context, name string, corpus *kb.Corpus, rec *recorder) (*topology, error) {
	ctx, cancel := context.WithCancel(ctx)
	t := &topology{name: name, corpus: corpus, rec: rec, cancel: cancel, served: make(chan struct{})}
	cfg := core.Config{Lexicon: corpus.Lexicon()}
	if rec != nil {
		cfg.LLMMiddleware = rec.llmMiddleware
		cfg.EmbedderMiddleware = rec.embedderMiddleware
	}
	ixCfg := index.Config{Schema: indexer.Schema()}

	switch name {
	case topoSingle:
		t.eng = core.New(cfg)
		t.source = newPageSource(corpus)
		if rec != nil {
			// The poller's indexer keeps the index it is created with.
			store := t.eng.Index
			t.eng.Index = &writeTap{Repository: store, rec: rec}
			t.poll = t.eng.NewPoller(ctx, t.source)
			t.eng.Index = store
			t.eng.Searcher.Index = &indexTap{Queryable: store, rec: rec, layer: layerIndex}
		} else {
			t.poll = t.eng.NewPoller(ctx, t.source)
		}
		if _, err := t.poll(); err != nil {
			t.close()
			return nil, fmt.Errorf("build %s: first poller pass: %w", name, err)
		}
	case topoRemote4:
		for i := 0; i < remoteShards; i++ {
			srv := remote.NewServer(remote.ServerConfig{Index: ixCfg})
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.close()
				return nil, fmt.Errorf("build %s: %w", name, err)
			}
			t.shardServers = append(t.shardServers, srv)
			cfg.RemoteShards = append(cfg.RemoteShards, srv.Addr())
		}
		cfg.ShardCount = remoteShards
		cfg.RemoteReplication = remoteReplication
		t.eng = core.New(cfg)
		if rec != nil {
			// Same backends, same facade configuration as core.New chose,
			// with a tap between the facade and each backend.
			built := t.eng.Sharded()
			backends := make([]shard.Backend, built.NumShards())
			for i := range backends {
				backends[i] = &backendTap{Backend: built.Backend(i), rec: rec}
			}
			tapped := shard.NewWithBackends(shard.Config{Shards: len(backends), Index: ixCfg}, backends)
			t.eng.Index = tapped
			t.eng.Searcher.Index = &indexTap{Queryable: tapped, rec: rec, layer: layerShard}
		}
		if err := t.eng.IndexCorpus(ctx, corpus); err != nil {
			t.close()
			return nil, fmt.Errorf("build %s: index corpus: %w", name, err)
		}
	default:
		cancel()
		return nil, fmt.Errorf("unknown topology %q", name)
	}
	t.quiesce()

	srv := server.New(t.eng)
	handler := srv.Handler()
	if rec != nil {
		t.eng.SetObserver(pipeline.Multi(srv.Metrics, rec))
		handler = rec.wrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	t.httpSrv = &http.Server{Handler: handler}
	t.baseURL = "http://" + ln.Addr().String()
	go func() {
		defer close(t.served)
		_ = t.httpSrv.Serve(ln) // returns http.ErrServerClosed on close()
	}()
	if err := awaitHealthz(ctx, t.baseURL); err != nil {
		t.close()
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	return t, nil
}

func awaitHealthz(ctx context.Context, baseURL string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("listener not ready: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the listener, the shard servers and the poller context. A
// background compactor may still be merging (it cannot be cancelled); drain
// waits for it.
func (t *topology) close() {
	if t.httpSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := t.httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			_ = t.httpSrv.Close()
		}
		cancel()
		<-t.served
	}
	t.cancel()
	if t.eng != nil {
		if sh := t.eng.Sharded(); sh != nil {
			_ = sh.Close() // connection pools only; nothing to report
		}
	}
	for _, srv := range t.shardServers {
		srv.Close()
	}
}

// drain returns once the closed topology's compactors have finished, so
// that nothing of it still uses a core when the next topology is timed.
func (t *topology) drain() {
	if t.eng == nil {
		return
	}
	for _, s := range t.stores() {
		s.WaitCompaction()
	}
}
