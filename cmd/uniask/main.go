// Command uniask runs the UniAsk REST service over a synthetic knowledge
// base: login, ask, search, feedback and dashboard endpoints.
//
// Usage:
//
//	uniask [-addr :8080] [-docs 6000] [-seed 1] [-shards 4]
//	       [-trace-capacity 2048] [-trace-sample 1.0] [-trace-slow 250ms]
//	       [-tenants overrides.json] [-tenants-reload 5s]
//	       [-admission-capacity 64] [-admission-queue 64] [-admission-wait 500ms]
//
// Example session:
//
//	TOKEN=$(curl -s -XPOST localhost:8080/api/login -d '{"user":"mario"}' | jq -r .token)
//	curl -s -XPOST localhost:8080/api/ask -H "Authorization: Bearer $TOKEN" \
//	     -d '{"question":"Come posso bloccare la carta di credito?"}' | jq .
//
// Without -tenants the server has one tenant, the default one, which every
// request resolves to. With -tenants (docs/MULTITENANCY.md) the same server
// hosts the tenants listed in the overrides file instead: each gets its own
// knowledge base and limits, requests name their tenant via the
// X-Uniask-Tenant header or /t/{tenant}/api/... paths, and the admission
// front door sheds excess traffic with 429 + Retry-After.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"uniask"
	"uniask/internal/server"
	"uniask/internal/session"
)

// options is everything the flags set: the one engine configuration every
// engine is built from, and the values around it (corpus, listener, tenancy,
// sessions).
type options struct {
	addr string
	docs int
	seed int64
	// engine is the default tenant's engine configuration and every named
	// tenant engine's base.
	engine uniask.Config
	// tenantsFile, when set, names the tenants served instead of the default
	// one.
	tenantsFile   string
	tenantsReload time.Duration
	cacheBudget   int
	admission     uniask.AdmissionConfig
	session       session.Config
	sseHeartbeat  time.Duration
}

// parseFlags registers the binary's flags on fs, each bound to the field
// it configures, and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	o.engine.Indexer.EnrichSummary = true
	var endpoints string
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.docs, "docs", 6000, "synthetic corpus size (paper: 59308)")
	fs.Int64Var(&o.seed, "seed", 1, "corpus generation seed")
	fs.IntVar(&o.engine.SearchWorkers, "workers", 0, "retrieval fan-out width (0 = one per CPU, 1 = sequential)")
	fs.IntVar(&o.engine.ShardCount, "shards", 1, "index shard count (1 = monolithic index)")
	fs.StringVar(&endpoints, "shard-endpoints", "", "comma-separated uniask-shard server addresses; when set, shards live on those servers (remote scatter-gather)")
	fs.IntVar(&o.engine.RemoteReplication, "shard-replication", 2, "endpoints hosting each remote shard (with -shard-endpoints)")
	o.engine.Segment.BindFlags(fs)
	fs.IntVar(&o.engine.Trace.Capacity, "trace-capacity", 0, "trace store size (0 = 2048 retained traces, negative disables tracing)")
	fs.Float64Var(&o.engine.Trace.SampleRate, "trace-sample", 0, "head-sampling rate in (0,1] (0 = trace every request)")
	fs.DurationVar(&o.engine.Trace.SlowThreshold, "trace-slow", 0, "always-retain latency threshold (0 = 250ms)")

	fs.StringVar(&o.tenantsFile, "tenants", "", "tenant overrides JSON file; when set the server hosts the tenants it lists (see docs/MULTITENANCY.md)")
	fs.DurationVar(&o.tenantsReload, "tenants-reload", 0, "overrides hot-reload poll interval (0 = 5s, negative disables)")
	fs.IntVar(&o.admission.Capacity, "admission-capacity", 0, "global concurrent query slots across tenants (0 = 64, negative = unlimited)")
	fs.IntVar(&o.admission.QueueDepth, "admission-queue", 0, "per-class admission queue depth (0 = 64)")
	fs.DurationVar(&o.admission.MaxWait, "admission-wait", 0, "max time a request queues for a slot before shedding (0 = 500ms)")
	fs.IntVar(&o.cacheBudget, "tenant-cache-budget", 0, "total query-cache entries across tenant partitions (0 = 4096)")

	fs.DurationVar(&o.session.TTL, "session-ttl", 0, "idle conversational-session lifetime (0 = 30m, negative disables expiry)")
	fs.IntVar(&o.session.MaxSessions, "session-budget", 0, "global live-session budget, LRU-evicted past it (0 = 1024)")
	fs.DurationVar(&o.sseHeartbeat, "sse-heartbeat", 0, "keep-alive comment interval on idle session streams (0 = 15s, negative disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, ep := range strings.Split(endpoints, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			o.engine.RemoteShards = append(o.engine.RemoteShards, ep)
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2) // not reached: flag.CommandLine exits on a parse error itself
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv, err := newServer(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup failed:", err)
		os.Exit(1)
	}
	if err := srv.Serve(ctx, o.addr); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

// newServer builds the server the options describe. The default tenant's
// corpus is generated and indexed before returning; with -tenants each tenant
// in the overrides file gets its own synthetic knowledge base (seeded from
// the tenant ID, so corpora are deterministic but distinct), built lazily on
// the tenant's first request.
func newServer(ctx context.Context, o *options) (*server.Server, error) {
	var srv *server.Server
	if o.tenantsFile != "" {
		var err error
		srv, err = uniask.NewMultiTenantServer(ctx, uniask.MultiTenantConfig{
			Base:           o.engine,
			OverridesPath:  o.tenantsFile,
			ReloadInterval: o.tenantsReload,
			CacheBudget:    o.cacheBudget,
			Admission:      o.admission,
			Corpus: func(id string) *uniask.Corpus {
				fmt.Fprintf(os.Stderr, "onboarding tenant %q: generating and indexing %d documents...\n", id, o.docs)
				return uniask.SyntheticCorpus(o.docs, o.seed^int64(tenantSeed(id)))
			},
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return nil, err
		}
		ids := srv.Tenants.Overrides().TenantIDs()
		fmt.Fprintf(os.Stderr, "%d tenants onboarded (%s), serving on %s\n",
			len(ids), strings.Join(ids, ", "), o.addr)
	} else {
		fmt.Fprintf(os.Stderr, "generating and indexing %d documents...\n", o.docs)
		start := time.Now()
		sys, err := uniask.NewFromCorpus(ctx, uniask.SyntheticCorpus(o.docs, o.seed), o.engine)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "ready in %v: %d chunks indexed, serving on %s\n",
			time.Since(start).Round(time.Millisecond), sys.IndexedChunks(), o.addr)
		srv = sys.NewServer()
	}
	// The session gauges read srv.Sessions at poll time, so swapping the
	// store after construction is safe.
	if o.session.TTL != 0 || o.session.MaxSessions != 0 {
		srv.Sessions = session.NewStore(o.session)
	}
	srv.SSEHeartbeat = o.sseHeartbeat
	return srv, nil
}

// tenantSeed derives a stable corpus seed from a tenant ID (FNV-1a).
func tenantSeed(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}
