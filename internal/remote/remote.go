// Package remote distributes the sharded index across processes. A shard
// server (cmd/uniask-shard) hosts segmented stores behind a length-prefixed
// gob wire protocol; on the client side a Client is the transport to one
// endpoint and a Group of them implements the shard facade's Backend
// surface, so internal/shard mixes in-process and remote shards without
// knowing the difference — the two-wave global-BM25 protocol runs the same
// RPCs either way and rankings stay byte-identical to a monolithic index at
// any topology.
//
// Topology is the front door: given endpoint addresses, a shard count and a
// replication factor, it derives a deterministic consistent-hash placement
// (Placement), builds one replicated Group per logical shard, and guards
// each endpoint with a single shared circuit breaker (one per endpoint, so
// an unreachable server is shed for all its shards at once). Reads are hedged
// across replicas — one dead replica costs at most a hedge delay, not
// availability — and a shard only counts as down when every replica of it
// is unreachable, which the search layer then surfaces as a Degradation
// with partial results rather than an error.
package remote

import (
	"uniask/internal/resilience"
	"uniask/internal/shard"
)

// Topology describes a remote shard cluster from the facade's point of
// view.
type Topology struct {
	// Endpoints are the shard-server addresses (host:port).
	Endpoints []string
	// Shards is the logical shard count (must match any snapshot the
	// cluster was seeded from).
	Shards int
	// Replication is how many distinct endpoints host each shard (default
	// 2, clamped to len(Endpoints)).
	Replication int
	// OnBreakerChange, when set, observes endpoint breaker transitions
	// (wired to the monitor's gauges by the engine).
	OnBreakerChange func(name string, from, to resilience.State)
}

// Backends builds the per-shard backends for shard.NewWithBackends: one
// replicated Group per logical shard, over the consistent-hash placement.
// No connection is opened here — clients dial lazily — so a facade can
// boot before its shard servers are up. Returns nil when no endpoints are
// configured (the caller falls back to local shards).
func (t Topology) Backends() []shard.Backend {
	if len(t.Endpoints) == 0 || t.Shards <= 0 {
		return nil
	}
	rf := t.Replication
	if rf <= 0 {
		rf = 2
	}
	breakers := make(map[string]*resilience.Breaker, len(t.Endpoints))
	for _, ep := range t.Endpoints {
		breakers[ep] = resilience.NewBreaker(resilience.BreakerConfig{
			Name:          "remote:" + ep,
			OnStateChange: t.OnBreakerChange,
		})
	}
	placement := Placement(t.Endpoints, t.Shards, rf)
	backends := make([]shard.Backend, t.Shards)
	for s, replicas := range placement {
		clients := make([]*Client, len(replicas))
		for i, ep := range replicas {
			clients[i] = NewClient(ClientConfig{Addr: ep, Shard: s, Breaker: breakers[ep]})
		}
		backends[s] = NewGroup(clients, 0)
	}
	return backends
}
