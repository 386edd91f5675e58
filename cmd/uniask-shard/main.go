// Command uniask-shard runs one UniAsk shard server: a process hosting
// index shards behind the remote wire protocol, queried by a uniask
// frontend started with -shard-endpoints. One server can host several
// logical shards (the frontend's consistent-hash placement decides which);
// replication comes from placing each shard on more than one server.
//
// Usage:
//
//	uniask-shard [-addr :9701] [-snapshot shard.bin] [-shard 0]
//	             [-memtable-max-docs 0] [-compaction-fanin 0]
//
// The -snapshot flag restores a segmented snapshot (written by the
// frontend's per-shard Save, or copied from a retiring server — see
// docs/OPERATIONS.md for the replacement runbook) as logical shard
// -shard before serving.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"uniask/internal/index"
	"uniask/internal/indexer"
	"uniask/internal/remote"
)

// options collects the parsed flags so run is testable.
type options struct {
	addr     string
	snapshot string
	shard    int
	segment  index.SegmentConfig
	maxFrame int
}

// parseFlags registers the binary's flags on fs, each writing into the
// returned options, parses args and refuses a store configuration the
// index cannot honour.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	opts := &options{}
	fs.StringVar(&opts.addr, "addr", ":9701", "listen address")
	fs.StringVar(&opts.snapshot, "snapshot", "", "segmented snapshot restored as shard -shard before serving")
	fs.IntVar(&opts.shard, "shard", 0, "logical shard id the -snapshot restores into")
	opts.segment.BindFlags(fs)
	fs.IntVar(&opts.maxFrame, "max-frame", 0, "request frame cap in bytes (0 = 64 MiB)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := opts.segment.Check(); err != nil {
		return nil, err
	}
	return opts, nil
}

func main() {
	opts, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		// A parse error never gets here: flag.CommandLine exits 2 itself.
		fmt.Fprintln(os.Stderr, "uniask-shard:", err)
		os.Exit(2)
	}

	srv, err := run(*opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uniask-shard:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "uniask-shard: serving on %s\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "uniask-shard: shutting down")
	srv.Close()
}

// run builds the server from the options, restores the optional snapshot
// and starts listening. The production schema is fixed: the wire protocol
// carries documents and queries, not configuration, so every shard server
// must analyze exactly like the frontend.
func run(opts options) (*remote.Server, error) {
	cfg := remote.ServerConfig{
		Index:    index.Config{Schema: indexer.Schema()},
		Segment:  opts.segment,
		MaxFrame: opts.maxFrame,
	}
	srv := remote.NewServer(cfg)
	if opts.snapshot != "" {
		f, err := os.Open(opts.snapshot)
		if err != nil {
			return nil, fmt.Errorf("open snapshot: %w", err)
		}
		st, err := index.ReadSegmented(f, cfg.Index, cfg.Segment)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("restore snapshot %s: %w", opts.snapshot, err)
		}
		srv.AdoptStore(opts.shard, st)
		fmt.Fprintf(os.Stderr, "uniask-shard: restored %d live chunks into shard %d from %s\n",
			st.LiveLen(), opts.shard, opts.snapshot)
	}
	if err := srv.Start(opts.addr); err != nil {
		return nil, err
	}
	return srv, nil
}
