package remote

// The ingest half of the wire: presence questions, reads of shards a
// server does not host, and what an unreachable shard does to a pass.

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/indexer"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
	"uniask/internal/shard"
)

// unhostedReadAllocs is the ceiling on the allocations of one presence or
// status read of a shard the server does not host: the reply and what it
// carries. Building the empty store such a read used to be answered from
// cost 47.
const unhostedReadAllocs = 4

// TestUnhostedReadsBuildNoStore: the shard id is network input, so a read
// of an id the server does not host must cost no more than its reply, and
// must leave no store behind.
func TestUnhostedReadsBuildNoStore(t *testing.T) {
	srv := NewServer(ServerConfig{Index: testConfig()})
	ids := []string{"kb00001", "kb00002", "kb00003"}
	for _, req := range []request{{Op: opHasParents, Shard: 5, IDs: ids}, {Op: opStatus, Shard: 5}} {
		allocs := testing.AllocsPerRun(50, func() { srv.handle(&req) })
		t.Logf("%s of an unhosted shard: %.0f allocations", req.Op, allocs)
		if allocs > unhostedReadAllocs {
			t.Errorf("%s of an unhosted shard: %.0f allocations, ceiling %d", req.Op, allocs, unhostedReadAllocs)
		}
	}
	if got := srv.Shards(); len(got) != 0 {
		t.Errorf("reads left hosted stores behind: %v", got)
	}
}

// TestUnhostedAnswersAsEmptyStore: every read of a shard the server does
// not host gets, once through the wire codec, the reply a hosted empty
// store gives. Left out are add and addBulk, which host the shard, and
// snapshot, which both serve from an empty store and gob encodes with its
// maps in random order. The retired op 11 is unknown to both.
func TestUnhostedAnswersAsEmptyStore(t *testing.T) {
	cfg := testConfig()
	unhosted, hosted := NewServer(ServerConfig{Index: cfg}), NewServer(ServerConfig{Index: cfg})
	hosted.Store(5)
	// wire returns resp as a client decodes it.
	wire := func(resp *response) response {
		payload, err := newCodec().encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		var out response
		if err := newCodec().decode(payload, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for o := opPing; o < opEnd; o++ {
		if o == opAdd || o == opAddBulk || o == opSnapshot {
			continue
		}
		req := request{Op: o, Shard: 5, Query: "conto corrente", N: 5, Fields: []string{"title"}, Terms: []string{"conto"},
			Field: "titleVector", Vector: testDoc(1).Vectors["titleVector"], K: 5, ID: "kb00001", IDs: []string{"kb00001#0", "kb00002"}}
		want := wire(hosted.handle(&req))
		if o == opRetiredHasParent && want.Err != "remote: unknown op 11" {
			t.Errorf("retired op 11: a hosted store answers %+v, want remote: unknown op 11", want)
		}
		if got := wire(unhosted.handle(&req)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: unhosted shard answers %+v, an empty one %+v", o, got, want)
		}
	}
	if got := unhosted.Shards(); len(got) != 0 {
		t.Errorf("reads hosted %v", got)
	}
}

// TestUnreachableShardFailsThePass: a shard none of whose replicas can be
// reached is not a shard without the pages. The pass fails on the
// presence question, with the transport error, before anything is written
// to any shard.
func TestUnreachableShardFailsThePass(t *testing.T) {
	live := startServer(t, ServerConfig{Index: testConfig()})
	var dead []*Client
	for range 2 {
		srv := startServer(t, ServerConfig{Index: testConfig()})
		srv.Close()
		dead = append(dead, NewClient(ClientConfig{Addr: srv.Addr(), Shard: 1}))
	}
	facade := shard.NewWithBackends(shard.Config{Index: testConfig()},
		[]shard.Backend{single(live.Addr(), 0), NewGroup(dead, 0)})
	defer facade.Close()

	corpus := kb.Generate(kb.GenConfig{Docs: 6, Seed: 3})
	pages := make(ingest.StaticSource, len(corpus.Docs))
	for i, d := range corpus.Docs {
		pages[i] = ingest.Page{ID: d.ID, HTML: d.HTML}
	}
	in := indexer.New(facade, embedding.NewSynth(64, corpus.Lexicon()), llm.NewSim(llm.DefaultBehavior()), indexer.Config{})
	applied, err := in.Index(context.Background(), (&ingest.Ingester{Source: pages}).Changes())
	var transport *net.OpError
	if applied != 0 || !errors.As(err, &transport) {
		t.Fatalf("indexing beside an unreachable shard: applied %d, err %v; want 0 and the transport error", applied, err)
	}
	if got := live.Shards(); len(got) != 0 {
		t.Fatalf("the reachable shard took writes: the server hosts %v", got)
	}
}
