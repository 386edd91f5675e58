package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"uniask/internal/index"
	"uniask/internal/resilience"
	"uniask/internal/shard"
	"uniask/internal/trace"
	"uniask/internal/vector"
)

// DefaultHedgeDelay is how long a replica group waits on the leading
// replica before launching a hedge against the next one. Loopback and
// rack-local RPCs answer well under this; anything slower is worth hedging.
const DefaultHedgeDelay = 2 * time.Millisecond

var errNoReplicas = errors.New("remote: no replicas configured")

// Group fans one logical shard out over replica endpoints and is the
// package's one implementation of the facade's Backend surface (a lone
// endpoint is a one-replica group). Each method spells its RPC once, as a
// request handed to read or write:
//
//   - Reads are hedged-failover: the group launches the preferred replica,
//     arms a hedge timer, and launches the next replica on either a failure
//     (immediately) or the timer (latency hedge). First success wins and
//     cancels the losers. The query only fails when every replica has
//     failed — a single healthy replica means 100% availability for the
//     shard.
//   - Writes go to every replica at once and return when all have
//     answered, so replicas stay byte-identical (same documents in the same
//     order) and any replica can serve any read. A write error is reported
//     after all replicas were attempted.
//
// Replica preference rotates per call (spreading load) and demotes
// endpoints whose breaker is not closed, so a dead or hung replica stops
// being the first attempt after a few failures and stays a last resort
// until a probe it actually answers (a demoted read attempt, or the status
// read every replica gets) closes its breaker.
type Group struct {
	replicas   []*Client
	hedgeDelay time.Duration
	next       atomic.Uint64
}

var (
	_ shard.Backend        = (*Group)(nil)
	_ shard.HealthReporter = (*Group)(nil)
)

// NewGroup builds a replica group (hedgeDelay <= 0 selects
// DefaultHedgeDelay). Panics on an empty replica set: a shard with no
// endpoints is a topology bug, not a runtime condition.
func NewGroup(replicas []*Client, hedgeDelay time.Duration) *Group {
	if len(replicas) == 0 {
		panic(errNoReplicas)
	}
	if hedgeDelay <= 0 {
		hedgeDelay = DefaultHedgeDelay
	}
	return &Group{replicas: replicas, hedgeDelay: hedgeDelay}
}

// order returns the replica attempt order for one read: rotated by a
// per-group counter for load spreading, with endpoints whose breaker is not
// closed demoted to the back (they still get attempted — as last resorts —
// which doubles as the half-open probe path).
func (g *Group) order() []*Client {
	n := len(g.replicas)
	start := int(g.next.Add(1)) % n
	ordered := make([]*Client, 0, n)
	var demoted []*Client
	for i := 0; i < n; i++ {
		c := g.replicas[(start+i)%n]
		if c.breakerState() == resilience.Closed {
			ordered = append(ordered, c)
		} else {
			demoted = append(demoted, c)
		}
	}
	return append(ordered, demoted...)
}

// read runs one RPC against the group's replicas with hedged failover and
// returns the first healthy reply. Every attempt stamps its own copy of
// req. An escalation past the preferred replica is recorded as a "hedge"
// event on the caller's span (the parent of the attempts' remote.rpc
// spans), with the endpoint escalated to and why.
func (g *Group) read(ctx context.Context, req request) (*response, error) {
	if len(g.replicas) == 1 {
		return g.replicas[0].call(ctx, req)
	}
	order := g.order()
	// Shared cancelable context: the first success reaps every loser (their
	// blocked reads abort via the connection-deadline poison).
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		resp *response
		err  error
	}
	results := make(chan outcome, len(order))
	launched, pending := 0, 0
	launch := func() {
		c := order[launched]
		launched++
		pending++
		go func(req request) { // each attempt gets its own copy of the envelope
			resp, err := c.call(hctx, req)
			results <- outcome{resp: resp, err: err}
		}(req)
	}
	escalate := func(cause string) {
		trace.AddEvent(ctx, "hedge", trace.A("endpoint", order[launched].cfg.Addr), trace.A("cause", cause))
		launch()
	}
	launch()
	timer := time.NewTimer(g.hedgeDelay)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				return out.resp, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if launched < len(order) {
				escalate("failure") // straight on to the next replica
				continue
			}
			if pending == 0 {
				return nil, firstErr // all replicas down → the shard is down
			}
		case <-timer.C:
			if launched < len(order) {
				escalate("delay") // latency hedge: race the next replica
				timer.Reset(g.hedgeDelay)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// background is the root context of every Backend method that has no
// caller context to derive from: the frozen shard.Backend signatures of the
// writes, the point reads and the lifecycle calls carry none. It is capped
// by CallTimeout (replicas of one group share their configuration).
func (g *Group) background() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), g.replicas[0].cfg.CallTimeout)
}

// readDetached is read for the Backend methods without a caller context.
func (g *Group) readDetached(req request) (*response, error) {
	ctx, cancel := g.background()
	defer cancel()
	return g.read(ctx, req)
}

// write applies one RPC to every replica at once and returns, once all
// have finished, the replies of those that answered (an application error
// is an answer) and the first error, both in replica order: which replica
// finished first decides nothing. A partially failed write leaves the
// failing replica behind; the error travels to the ingest caller.
func (g *Group) write(req request) ([]*response, error) {
	replies := make([]*response, len(g.replicas))
	errs := make([]error, len(g.replicas))
	var wg sync.WaitGroup
	for i, c := range g.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := g.background()
			defer cancel()
			replies[i], errs[i] = c.call(ctx, req)
		}()
	}
	wg.Wait()
	var first error
	resps := make([]*response, 0, len(g.replicas))
	for i, resp := range replies {
		if resp != nil {
			resps = append(resps, resp)
		}
		if first == nil {
			first = errs[i]
		}
	}
	return resps, first
}

// ---- Backend: writes ----

// Add implements shard.Backend.
func (g *Group) Add(doc index.Document) error {
	_, err := g.write(request{Op: opAdd, Docs: []index.Document{doc}})
	return err
}

// AddBulk implements shard.Backend: applied is the max per-replica count
// (all replicas take the same documents; max tolerates one being down).
func (g *Group) AddBulk(docs []index.Document) (applied int, err error) {
	if len(docs) == 0 {
		return 0, nil
	}
	resps, err := g.write(request{Op: opAddBulk, Docs: docs})
	for _, resp := range resps {
		applied = max(applied, resp.N)
	}
	return applied, err
}

// Delete implements shard.Backend: true when any replica deleted the chunk
// (an unreachable replica observably deleted nothing).
func (g *Group) Delete(chunkID string) bool {
	resps, _ := g.write(request{Op: opDelete, ID: chunkID})
	for _, resp := range resps {
		if resp.OK {
			return true
		}
	}
	return false
}

// DeleteParent implements shard.Backend: the max per-replica count (all
// replicas hold the same chunks; max tolerates one being down).
func (g *Group) DeleteParent(parentID string) int {
	resps, _ := g.write(request{Op: opDeleteParent, ID: parentID})
	n := 0
	for _, resp := range resps {
		n = max(n, resp.N)
	}
	return n
}

// Publish implements shard.Backend (fans out so every replica seals its
// memtable and stays byte-identical with its peers).
func (g *Group) Publish() { g.write(request{Op: opPublish}) }

// WaitCompaction implements shard.Backend.
func (g *Group) WaitCompaction() { g.write(request{Op: opWaitCompaction}) }

// ---- Backend: reads (hedged) ----

// CollectStats implements shard.Backend.
func (g *Group) CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error) {
	resp, err := g.read(ctx, request{Op: opCollectStats, Fields: fields, Terms: terms})
	if err != nil {
		return index.CorpusStats{}, err
	}
	if resp.Stats == nil {
		return index.CorpusStats{}, errors.New("remote: collectStats: empty stats response")
	}
	return *resp.Stats, nil
}

// searchHits unwraps the reply of the three search RPCs.
func searchHits(resp *response, err error) ([]index.Hit, error) {
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// SearchText implements shard.Backend.
func (g *Group) SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error) {
	return searchHits(g.read(ctx, request{Op: opSearchText, Query: query, N: n, Opts: opts}))
}

// SearchTextGlobal implements shard.Backend.
func (g *Group) SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error) {
	return searchHits(g.read(ctx, request{Op: opSearchTextGlobal, Query: query, N: n, Opts: opts, Stats: stats}))
}

// SearchVectorUnit implements shard.Backend.
func (g *Group) SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error) {
	return searchHits(g.read(ctx, request{Op: opSearchVector, Field: field, Vector: q, K: k, Filters: filters}))
}

// DocsByID implements shard.Backend: one RPC for the whole batch, on the
// caller's context (request deadline and trace). A reply that does not
// align with ids is refused rather than scattered into the wrong slots.
func (g *Group) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	resp, err := g.read(ctx, request{Op: opDocsByID, IDs: ids})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) != len(ids) {
		return nil, fmt.Errorf("remote: docsByID: %d documents for %d ids", len(resp.Docs), len(ids))
	}
	return resp.Docs, nil
}

// The reads below carry no caller context; an unreachable shard answers
// like an empty one (no ids, no document), which is all their signatures
// can say.

// ParentChunkIDs implements shard.Backend.
func (g *Group) ParentChunkIDs(parentID string) []string {
	resp, err := g.readDetached(request{Op: opParentChunkIDs, ID: parentID})
	if err != nil {
		return nil
	}
	return resp.IDs
}

// HasParents implements shard.Backend with one hedged read for the whole
// batch. Unlike the other reads without a caller context it reports an
// unreachable shard as an error: the indexer must not take such a shard for
// one that lacks the page.
func (g *Group) HasParents(ids []string) ([]bool, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	resp, err := g.readDetached(request{Op: opHasParents, IDs: ids})
	if err != nil {
		return nil, err
	}
	if len(resp.Present) != len(ids) {
		return nil, fmt.Errorf("remote: hasParents: %d answers for %d ids", len(resp.Present), len(ids))
	}
	return resp.Present, nil
}

// DocByID implements shard.Backend.
func (g *Group) DocByID(id string) (index.Document, bool) {
	resp, err := g.readDetached(request{Op: opDocByID, ID: id})
	if err != nil || !resp.OK || resp.Doc == nil {
		return index.Document{}, false
	}
	return *resp.Doc, true
}

// Doc implements shard.Backend. Ordinal access is a diagnostics/migration
// path.
func (g *Group) Doc(ord int) index.Document {
	resp, err := g.readDetached(request{Op: opDoc, Ord: ord})
	if err != nil || resp.Doc == nil {
		return index.Document{}
	}
	return *resp.Doc
}

// LiveDocs implements shard.Backend.
func (g *Group) LiveDocs() []index.Document {
	resp, err := g.readDetached(request{Op: opLiveDocs})
	if err != nil {
		return nil
	}
	return resp.Docs
}

// Save implements shard.Backend: a replica snapshots the shard and ships
// the bytes back in one frame; the first to deliver wins.
func (g *Group) Save(w io.Writer) error {
	resp, err := g.readDetached(request{Op: opSnapshot})
	if err != nil {
		return err
	}
	if _, err := w.Write(resp.Snapshot); err != nil {
		return fmt.Errorf("remote: write snapshot: %w", err)
	}
	return nil
}

// ---- Backend: staleness signals and gauges ----

// maxStatus reports the status of the replica on the newest stats snapshot:
// replicas receive the same writes, so a lagging or unreachable replica
// (serving its cached last-known status) never drags the stats key backwards.
func (g *Group) maxStatus() shardStatus {
	var out shardStatus
	for i, c := range g.replicas {
		st := c.status()
		if i == 0 || st.StatsKey > out.StatsKey {
			out = st
		}
	}
	return out
}

// StatsKey implements shard.Backend.
func (g *Group) StatsKey() uint64 { return g.maxStatus().StatsKey }

// Len implements shard.Backend.
func (g *Group) Len() int { return g.maxStatus().Len }

// LiveLen implements shard.Backend.
func (g *Group) LiveLen() int { return g.maxStatus().LiveLen }

// Stats implements shard.Backend.
func (g *Group) Stats() index.Stats { return g.maxStatus().Stats }

// SegmentStats implements shard.Backend.
func (g *Group) SegmentStats() index.SegmentStats { return g.maxStatus().Segments }

// Close implements shard.Backend.
func (g *Group) Close() error {
	var first error
	for _, c := range g.replicas {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Breakers implements shard.HealthReporter: the status of each distinct
// endpoint breaker guarding this group's replicas.
func (g *Group) Breakers() []resilience.BreakerStatus {
	var out []resilience.BreakerStatus
	seen := make(map[*resilience.Breaker]bool)
	for _, c := range g.replicas {
		b := c.cfg.Breaker
		if b == nil || seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b.Status())
	}
	return out
}
