package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"uniask/internal/kb"
)

// workloadSpec names a workload, the topology it runs on and why it exists.
// The why lines are what BENCHMARK.json carries.
type workloadSpec struct {
	name     string
	topology string
	why      string
}

var workloads = []workloadSpec{
	{name: "ask_cold", topology: topoSingle, why: "distinct /api/ask questions from the paper's UAT generator: every request misses the query cache, so rerank, index, embedding, generation and guardrails do the work"},
	{name: "search_hot", topology: topoSingle, why: "256 keyword /api/search queries drawn Zipf(1.1): at least 90% cache hits, so only server, the search hit path and transport work; retrieval changes must show no change here"},
	{name: "chat_sharded", topology: topoRemote4, why: "4-turn SSE sessions over 4 remote shards at replication 2: session rewrite, sse, shard fan-out and remote RPCs dominate, the retrieval of ask_cold does little"},
	{name: "ask_ingest", topology: topoSingle, why: "ask_cold reads beside a paced writer (3 edits + 1 add/remove + poller pass every 500 ms): seals, compaction and cache rotation compete with reads"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// opResult is one primary operation as the client observed it.
type opResult struct {
	start time.Time
	first time.Time // first usable content: the citations event, or the whole body
	end   time.Time
	err   error

	// Conversational turns only.
	firstToken   time.Time // first token event parsed
	events       int       // SSE events in the turn
	historyTurns int       // earlier turns the server rewrote against
}

// driver issues a workload's operations. prepare does the untimed work the
// client's next operation needs (opening a session); next performs and
// checks exactly one primary operation.
type driver interface {
	prepare(ctx context.Context, c *apiClient, client int) error
	next(ctx context.Context, c *apiClient, client int) opResult
}

// turnsPerSession is the length of a chat_sharded conversation.
const turnsPerSession = 4

// hotQueries is the search_hot working set, half the 512-entry query cache.
const hotQueries = 256

// dedupe keeps the first query of every distinct text.
func dedupe(qs []kb.Query) []kb.Query {
	seen := make(map[string]bool, len(qs))
	out := qs[:0:0]
	for _, q := range qs {
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q)
		}
	}
	return out
}

// ---- ask_cold / ask_ingest reads ----

// coldPoolSize is how many UAT-mix questions are generated before
// deduplication (about half survive). The pool must outlast the run several
// times over: a repeated question would hit the query cache and the
// workload would stop being cold.
const coldPoolSize = 24000

// coldPool is a deduplicated question pool shared by the clients of a run:
// each question is asked exactly once, by whichever client gets to it first.
type coldPool struct {
	questions []kb.Query
	cursor    atomic.Int64
}

// newColdPool generates the paper's UAT mix (human, keyword, out-of-scope,
// error-code and special-case questions), keeps one of every distinct text
// and shuffles, so every stretch of the pool has the same composition. The
// keyword, error-code and out-of-scope generators have only a few hundred
// distinct texts between them, so after deduplication nine questions in ten
// are human ones.
func newColdPool(corpus *kb.Corpus, seed int64) *coldPool {
	qs := dedupe(corpus.UATDataset(coldPoolSize, seed+1000).Queries)
	rand.New(rand.NewSource(seed+1001)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return &coldPool{questions: qs}
}

func (p *coldPool) take() kb.Query {
	return p.questions[int(p.cursor.Add(1)-1)%len(p.questions)]
}

// exhausted reports whether the run consumed more questions than the pool
// holds, i.e. some question was asked twice.
func (p *coldPool) exhausted() bool { return p.cursor.Load() > int64(len(p.questions)) }

// coldDriver asks the pool's questions against one topology.
type coldDriver struct {
	pool *coldPool
	// removedAt maps a page id to when its removal was published; a read
	// that starts later must not see the page (ask_ingest only).
	removedAt sync.Map
}

func (d *coldDriver) prepare(context.Context, *apiClient, int) error { return nil }

func (d *coldDriver) next(ctx context.Context, c *apiClient, _ int) opResult {
	q := d.pool.take()
	var r opResult
	r.start = time.Now()
	reply, err := c.ask(ctx, q.Text)
	r.end = time.Now()
	r.first = r.end
	switch {
	case err != nil:
		r.err = err
	case reply.Degraded:
		r.err = errors.New("ask: degraded answer")
	case q.Kind != kb.OutOfScopeQuery && len(reply.Documents) == 0:
		r.err = fmt.Errorf("ask: no documents for in-scope question %q", q.Text)
	default:
		r.err = d.checkRemoved(reply.Documents, r.start)
	}
	return r
}

func (d *coldDriver) checkRemoved(docs []doc, asked time.Time) error {
	for _, doc := range docs {
		if at, ok := d.removedAt.Load(doc.Parent); ok && at.(time.Time).Before(asked) {
			return fmt.Errorf("ask: removed page %s returned", doc.Parent)
		}
	}
	return nil
}

// ---- search_hot ----

// hotDriver replays a small keyword log with Zipf popularity, each client
// drawing from its own seeded stream.
type hotDriver struct {
	queries []string
	draws   []*rand.Zipf
}

func newHotDriver(corpus *kb.Corpus, seed int64, clients int) (*hotDriver, error) {
	pool := dedupe(corpus.KeywordDataset(20*hotQueries, seed+2000).Queries)
	if len(pool) < hotQueries {
		return nil, fmt.Errorf("search_hot: corpus yields only %d distinct keyword queries, need %d", len(pool), hotQueries)
	}
	d := &hotDriver{}
	for _, q := range pool[:hotQueries] {
		d.queries = append(d.queries, q.Text)
	}
	for i := 0; i < clients; i++ {
		rng := rand.New(rand.NewSource(seed + 2001 + int64(i)))
		d.draws = append(d.draws, rand.NewZipf(rng, 1.1, 1, hotQueries-1))
	}
	return d, nil
}

func (d *hotDriver) prepare(context.Context, *apiClient, int) error { return nil }

func (d *hotDriver) next(ctx context.Context, c *apiClient, client int) opResult {
	q := d.queries[d.draws[client].Uint64()]
	var r opResult
	r.start = time.Now()
	docs, err := c.search(ctx, q)
	r.end = time.Now()
	r.first = r.end
	if err == nil && len(docs) == 0 {
		err = fmt.Errorf("search: no documents for %q", q)
	}
	r.err = err
	return r
}

// ---- chat_sharded ----

// chatPoolSize is how many human questions are generated to form sessions.
const chatPoolSize = 6000

// chatDriver runs conversations: a client opens a session, asks four
// questions on one topic, then opens the next session. Every question text
// is used once, so later sessions do not replay earlier rewrites from the
// query cache.
type chatDriver struct {
	pool  *sessionPool
	state []chatState // per client; a session lives on one topology
}

// sessionPool is the run's supply of conversations.
type sessionPool struct {
	sessions [][]string
	cursor   atomic.Int64
}

func (p *sessionPool) exhausted() bool { return p.cursor.Load() > int64(len(p.sessions)) }

type chatState struct {
	id        string
	questions []string
	turn      int
}

// topicSessions groups distinct human questions by the topic of their
// target document (Corpus.SameTopic) and cuts each group into sessions of
// turnsPerSession, in generation order.
func topicSessions(corpus *kb.Corpus, seed int64) [][]string {
	topicOf := make(map[string]int, len(corpus.Docs))
	var reps []string
	for _, d := range corpus.Docs {
		t := -1
		for i, r := range reps {
			if corpus.SameTopic(r, d.ID) {
				t = i
				break
			}
		}
		if t < 0 {
			t = len(reps)
			reps = append(reps, d.ID)
		}
		topicOf[d.ID] = t
	}
	pending := make([][]string, len(reps))
	var sessions [][]string
	for _, q := range dedupe(corpus.HumanDataset(chatPoolSize, seed+3000).Queries) {
		if len(q.Relevant) == 0 {
			continue
		}
		t := topicOf[q.Relevant[0]]
		pending[t] = append(pending[t], q.Text)
		if len(pending[t]) == turnsPerSession {
			sessions = append(sessions, pending[t])
			pending[t] = nil
		}
	}
	return sessions
}

func newSessionPool(corpus *kb.Corpus, seed int64) (*sessionPool, error) {
	p := &sessionPool{sessions: topicSessions(corpus, seed)}
	if len(p.sessions) == 0 {
		return nil, fmt.Errorf("chat_sharded: corpus yields no topic with %d distinct questions", turnsPerSession)
	}
	return p, nil
}

func (d *chatDriver) prepare(ctx context.Context, c *apiClient, client int) error {
	st := &d.state[client]
	if st.id != "" && st.turn < turnsPerSession {
		return nil
	}
	id, err := c.createSession(ctx)
	if err != nil {
		return err
	}
	p := d.pool
	*st = chatState{id: id, questions: p.sessions[int(p.cursor.Add(1)-1)%len(p.sessions)]}
	return nil
}

func (d *chatDriver) next(ctx context.Context, c *apiClient, client int) opResult {
	st := &d.state[client]
	turn := st.turn
	st.turn++
	var r opResult
	r.start = time.Now()
	reply, err := c.turn(ctx, st.id, st.questions[turn])
	r.first, r.end = reply.Citations, reply.Done
	r.firstToken, r.events, r.historyTurns = reply.FirstToken, reply.Events, turn
	switch {
	case err != nil:
		r.err = err
		r.end = time.Now()
	case reply.Degraded:
		r.err = errors.New("turn: degraded answer")
	case len(reply.Documents) == 0:
		r.err = fmt.Errorf("turn: no citations for %q", st.questions[turn])
	case reply.Turn != turn:
		r.err = fmt.Errorf("turn: server counted turn %d, client %d", reply.Turn, turn)
	}
	return r
}
