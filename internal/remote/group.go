package remote

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"uniask/internal/index"
	"uniask/internal/resilience"
	"uniask/internal/shard"
	"uniask/internal/vector"
)

// DefaultHedgeDelay is how long a replica group waits on the leading
// replica before launching a hedge against the next one. Loopback and
// rack-local RPCs answer well under this; anything slower is worth hedging.
const DefaultHedgeDelay = 2 * time.Millisecond

var errNoReplicas = errors.New("remote: no replicas configured")

// Group fans one logical shard out over replica endpoints and implements
// the facade's Backend surface:
//
//   - Reads are hedged-failover: the group launches the preferred replica,
//     arms a hedge timer, and launches the next replica on either a failure
//     (immediately) or the timer (latency hedge). First success wins and
//     cancels the losers. The query only fails when every replica has
//     failed — a single healthy replica means 100% availability for the
//     shard.
//   - Writes fan out to every replica synchronously, so replicas stay
//     byte-identical (same documents in the same order) and any replica can
//     serve any read. A write error is reported after all replicas were
//     attempted.
//
// Replica preference rotates per call (spreading load) and demotes
// endpoints whose breaker is open, so a dead replica stops being the first
// attempt after a few failures and recovers via the breaker's half-open
// probe.
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

// Replicas exposes the member clients (tests, diagnostics).
func (g *Group) Replicas() []*Client { return g.replicas }

// order returns the replica attempt order for one read: rotated by a
// per-group counter for load spreading, with open-breaker endpoints
// demoted to the back (they still get attempted — as last resorts — which
// doubles as the half-open probe path).
func (g *Group) order() []*Client {
	n := len(g.replicas)
	start := int(g.next.Add(1)) % n
	rotated := make([]*Client, 0, n)
	for i := 0; i < n; i++ {
		rotated = append(rotated, g.replicas[(start+i)%n])
	}
	if n == 1 {
		return rotated
	}
	ordered := rotated[:0:0]
	var demoted []*Client
	for _, c := range rotated {
		if c.breakerState() == resilience.Open {
			demoted = append(demoted, c)
		} else {
			ordered = append(ordered, c)
		}
	}
	return append(ordered, demoted...)
}

// hedged runs op against the group's replicas with hedged failover. It is
// a package-level function because methods cannot introduce type
// parameters.
func hedged[T any](ctx context.Context, g *Group, op func(ctx context.Context, c *Client) (T, error)) (T, error) {
	var zero T
	order := g.order()
	if len(order) == 1 {
		return op(ctx, order[0])
	}
	// Shared cancelable context: the first success reaps every loser (their
	// blocked reads abort via the connection-deadline poison).
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	results := make(chan outcome, len(order))
	launched, pending := 0, 0
	launch := func() {
		c := order[launched]
		launched++
		pending++
		go func() {
			v, err := op(hctx, c)
			results <- outcome{v: v, err: err}
		}()
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
				return out.v, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if launched < len(order) {
				launch() // failure: escalate to the next replica immediately
				continue
			}
			if pending == 0 {
				return zero, firstErr // all replicas down → the shard is down
			}
		case <-timer.C:
			if launched < len(order) {
				launch() // latency hedge: race the next replica
				timer.Reset(g.hedgeDelay)
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// fanout applies a write to every replica, returning the first error after
// all were attempted (a partially failed write leaves the failing replica
// behind; its breaker records nothing here — writes carry their error to
// the ingest caller instead).
func (g *Group) fanout(op func(c *Client) error) error {
	var first error
	for _, c := range g.replicas {
		if err := op(c); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- Backend: writes ----

// Add implements shard.Backend.
func (g *Group) Add(doc index.Document) error {
	return g.fanout(func(c *Client) error { return c.Add(doc) })
}

// AddBulk implements shard.Backend.
func (g *Group) AddBulk(docs []index.Document) error {
	return g.fanout(func(c *Client) error { return c.AddBulk(docs) })
}

// Delete implements shard.Backend: true when any replica deleted the chunk.
func (g *Group) Delete(chunkID string) bool {
	deleted := false
	for _, c := range g.replicas {
		if c.Delete(chunkID) {
			deleted = true
		}
	}
	return deleted
}

// DeleteParent implements shard.Backend: the max per-replica count (all
// replicas hold the same chunks; max tolerates one being down).
func (g *Group) DeleteParent(parentID string) int {
	n := 0
	for _, c := range g.replicas {
		if k := c.DeleteParent(parentID); k > n {
			n = k
		}
	}
	return n
}

// ParentChunkIDs implements shard.Backend.
func (g *Group) ParentChunkIDs(parentID string) []string {
	ids, _ := hedged(context.Background(), g, func(ctx context.Context, c *Client) ([]string, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opParentChunkIDs, ID: parentID})
		if err != nil {
			return nil, err
		}
		return resp.IDs, nil
	})
	return ids
}

// HasParent implements shard.Backend.
func (g *Group) HasParent(parentID string) bool {
	ok, _ := hedged(context.Background(), g, func(ctx context.Context, c *Client) (bool, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opHasParent, ID: parentID})
		if err != nil {
			return false, err
		}
		return resp.OK, nil
	})
	return ok
}

// ---- Backend: queries (hedged) ----

// CollectStats implements shard.Backend.
func (g *Group) CollectStats(ctx context.Context, fields, terms []string) (index.CorpusStats, error) {
	return hedged(ctx, g, func(ctx context.Context, c *Client) (index.CorpusStats, error) {
		return c.CollectStats(ctx, fields, terms)
	})
}

// SearchText implements shard.Backend.
func (g *Group) SearchText(ctx context.Context, query string, n int, opts index.TextOptions) ([]index.Hit, error) {
	return hedged(ctx, g, func(ctx context.Context, c *Client) ([]index.Hit, error) {
		return c.SearchText(ctx, query, n, opts)
	})
}

// SearchTextGlobal implements shard.Backend.
func (g *Group) SearchTextGlobal(ctx context.Context, query string, n int, opts index.TextOptions, stats *index.CorpusStats) ([]index.Hit, error) {
	return hedged(ctx, g, func(ctx context.Context, c *Client) ([]index.Hit, error) {
		return c.SearchTextGlobal(ctx, query, n, opts, stats)
	})
}

// SearchVectorUnit implements shard.Backend.
func (g *Group) SearchVectorUnit(ctx context.Context, field string, q vector.Vector, k int, filters []index.Filter) ([]index.Hit, error) {
	return hedged(ctx, g, func(ctx context.Context, c *Client) ([]index.Hit, error) {
		return c.SearchVectorUnit(ctx, field, q, k, filters)
	})
}

// DocByID implements shard.Backend.
func (g *Group) DocByID(id string) (index.Document, bool) {
	type docHit struct {
		doc index.Document
		ok  bool
	}
	out, err := hedged(context.Background(), g, func(ctx context.Context, c *Client) (docHit, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opDocByID, ID: id})
		if err != nil {
			return docHit{}, err
		}
		if !resp.OK || resp.Doc == nil {
			return docHit{}, nil
		}
		return docHit{doc: *resp.Doc, ok: true}, nil
	})
	if err != nil {
		return index.Document{}, false
	}
	return out.doc, out.ok
}

// DocsByID implements shard.Backend.
func (g *Group) DocsByID(ctx context.Context, ids []string) ([]index.Document, error) {
	return hedged(ctx, g, func(ctx context.Context, c *Client) ([]index.Document, error) {
		return c.DocsByID(ctx, ids)
	})
}

// ---- Backend: staleness signals and gauges ----

// maxStatus reports the status of the replica on the newest stats snapshot:
// replicas receive the same writes, so a lagging or unreachable replica
// (serving its cached last-known status) never drags the stats key backwards.
func (g *Group) maxStatus() shardStatus {
	var out shardStatus
	for i, c := range g.replicas {
		st := c.statusOrCached()
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

// Tombstones implements shard.Backend.
func (g *Group) Tombstones() int { return g.maxStatus().Tombstones }

// Stats implements shard.Backend.
func (g *Group) Stats() index.Stats { return g.maxStatus().Stats }

// SegmentStats implements shard.Backend.
func (g *Group) SegmentStats() index.SegmentStats { return g.maxStatus().Segments }

// ---- Backend: lifecycle and bulk access ----

// Doc implements shard.Backend.
func (g *Group) Doc(ord int) index.Document {
	doc, _ := hedged(context.Background(), g, func(ctx context.Context, c *Client) (index.Document, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opDoc, Ord: ord})
		if err != nil {
			return index.Document{}, err
		}
		if resp.Doc == nil {
			return index.Document{}, nil
		}
		return *resp.Doc, nil
	})
	return doc
}

// LiveDocs implements shard.Backend.
func (g *Group) LiveDocs() []index.Document {
	docs, _ := hedged(context.Background(), g, func(ctx context.Context, c *Client) ([]index.Document, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opLiveDocs})
		if err != nil {
			return nil, err
		}
		return resp.Docs, nil
	})
	return docs
}

// Publish implements shard.Backend (fans out so every replica seals its
// memtable and stays byte-identical with its peers).
func (g *Group) Publish() {
	g.fanout(func(c *Client) error { c.Publish(); return nil })
}

// WaitCompaction implements shard.Backend.
func (g *Group) WaitCompaction() {
	g.fanout(func(c *Client) error { c.WaitCompaction(); return nil })
}

// Save implements shard.Backend: the first replica that delivers a
// snapshot wins.
func (g *Group) Save(w io.Writer) error {
	snap, err := hedged(context.Background(), g, func(ctx context.Context, c *Client) ([]byte, error) {
		ctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
		resp, err := c.call(ctx, &request{Op: opSnapshot})
		if err != nil {
			return nil, err
		}
		return resp.Snapshot, nil
	})
	if err != nil {
		return err
	}
	_, err = w.Write(snap)
	return err
}

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
