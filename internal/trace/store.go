package trace

// Bounded lock-sharded in-memory trace store. Finished traces land in one
// of 16 lock shards (by trace-id hash); each lock shard keeps two fixed
// ring buffers — ordinary head-sampled traces, and the protected class the
// tail-sampling rules always retain (error / degraded / slow). Overwriting
// the oldest entry of the same class is the only eviction, so a flood of
// healthy traffic can never push out the failing traces an operator is
// debugging, and memory stays strictly bounded either way.

import (
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// TraceData is one finished, stored trace.
type TraceData struct {
	// TraceID is the id returned to the client in X-Uniask-Trace-Id.
	TraceID string `json:"traceId"`
	// Name is the root span's operation ("ask", "search").
	Name string `json:"name"`
	// Start and Duration are the root span's.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	// Status is the root span's outcome.
	Status Status `json:"status"`
	// Retained records why tail sampling kept the trace: "error",
	// "degraded", "slow", or "sampled" (ordinary ring).
	Retained string `json:"retained"`
	// Spans is the flat span list in creation order (Spans[0] is the root).
	Spans []Span `json:"spans"`
}

// storeShards is the lock-shard count; a power of two so the id hash maps
// with a mask.
const storeShards = 16

// storeShard is one lock shard: a lookup map plus the two eviction rings.
type storeShard struct {
	mu       sync.Mutex
	byID     map[string]*TraceData
	ordinary ring
	hot      ring
}

// ring is a fixed-capacity FIFO of trace ids; push reports the id it
// evicted ("" while the ring still has room).
type ring struct {
	ids  []string
	next int
	full bool
}

func (r *ring) push(id string) (evicted string) {
	if r.full {
		evicted = r.ids[r.next]
	}
	r.ids[r.next] = id
	r.next++
	if r.next == len(r.ids) {
		r.next = 0
		r.full = true
	}
	return evicted
}

// Store is the bounded trace store. Construct through New (the Tracer owns
// one); a nil *Store answers every query empty.
type Store struct {
	shards [storeShards]*storeShard
}

func newStore(capacity int) *Store {
	per := capacity / storeShards / 2
	if per < 1 {
		per = 1
	}
	s := &Store{}
	for i := range s.shards {
		s.shards[i] = &storeShard{
			byID:     make(map[string]*TraceData),
			ordinary: ring{ids: make([]string, per)},
			hot:      ring{ids: make([]string, per)},
		}
	}
	return s
}

func (s *Store) shardFor(id string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()&(storeShards-1)]
}

// put stores a finished trace, evicting the oldest trace of the same
// retention class when that class's ring is full.
func (s *Store) put(td *TraceData, hot bool) {
	sh := s.shardFor(td.TraceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var evicted string
	if hot {
		evicted = sh.hot.push(td.TraceID)
	} else {
		evicted = sh.ordinary.push(td.TraceID)
	}
	if evicted != "" {
		delete(sh.byID, evicted)
	}
	sh.byID[td.TraceID] = td
}

// Get fetches one trace by id.
func (s *Store) Get(id string) (*TraceData, bool) {
	if s == nil {
		return nil, false
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	td, ok := sh.byID[id]
	return td, ok
}

// List returns the retained traces matching filter (nil = all), newest
// first, truncated to limit (<= 0 = no limit). Stored traces are
// immutable, so the returned pointers are safe to read without locks.
func (s *Store) List(filter func(*TraceData) bool, limit int) []*TraceData {
	if s == nil {
		return nil
	}
	var out []*TraceData
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, td := range sh.byID {
			if filter == nil || filter(td) {
				out = append(out, td)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Node is one span with its children resolved — the tree form of a trace
// served by /api/traces/{id}.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// Tree nests the flat span list under its parent links. Spans whose parent
// is missing (never on traces this package builds) surface as extra roots,
// so the result is always complete.
func (td *TraceData) Tree() []*Node {
	nodes := make(map[uint64]*Node, len(td.Spans))
	for i := range td.Spans {
		nodes[td.Spans[i].SpanID] = &Node{Span: td.Spans[i]}
	}
	var roots []*Node
	for i := range td.Spans {
		n := nodes[td.Spans[i].SpanID]
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// SpanByName returns the first span with the given name (creation order).
func (td *TraceData) SpanByName(name string) (Span, bool) {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return Span{}, false
}
