// Command bench is UniAsk's end-to-end serving benchmark. In one process it
// builds a synthetic knowledge base, stands up the real REST server on a
// loopback listener (and, for one workload, four remote shard servers),
// drives four workloads over keep-alive HTTP, checks the answers, and
// prints every metric by name. See README.md in this directory.
//
//	go run ./bench                               # every workload, untraced + traced
//	go run ./bench -workload ask_cold -trace 0   # one run, contract output
//	go run ./bench -compare a.json b.json        # judge two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
)

// Pinned parameters: BENCHMARK.json runs the benchmark with exactly these.
// The acceptance driver makes 4 + 22 x 4 workloads = 92 runs and two builds
// inside 3420 s, about 35 s a run. The corpus is sized so that three
// set-ups, the quality gate, the warm-up and the window fit that; -docs 59308
// is the paper-scale offline run and not part of the contract.
const (
	pinnedDocs    = 600
	pinnedSeconds = 15
	maxClients    = 4
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all): ask_cold, search_hot, chat_sharded, ask_ingest")
		seed     = flag.Int64("seed", 1, "seed of the generated traffic (the knowledge base and the quality gate are pinned)")
		seconds  = flag.Float64("seconds", pinnedSeconds, "length of the measured window")
		trace    = flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		docs     = flag.Int("docs", pinnedDocs, "knowledge-base pages")
		runs     = flag.Int("runs", 1, "repeat every untraced run with seeds seed, seed+1, ...")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace_<workload>.jsonl")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json change.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json change.json")
			return 2
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadSpec{w}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds <= 0 || *docs <= 0 || *runs <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -docs and -runs must be positive")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rf := resultsFile{Docs: *docs, Seconds: *seconds, Clients: min(runtime.NumCPU(), maxClients), CPUs: runtime.NumCPU()}
	for _, w := range selected {
		for _, traced := range modes {
			n := *runs
			if traced {
				n = 1
			}
			for i := 0; i < n; i++ {
				res, err := runOne(ctx, runConfig{
					workload: w, traced: traced, seed: *seed + int64(i), seconds: *seconds,
					docs: *docs, clients: rf.Clients, outDir: *out,
				})
				if err != nil {
					// No result line: the run could not be made at all.
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printRun(os.Stdout, res)
				rf.Runs = append(rf.Runs, res)
			}
		}
	}

	correct := true
	for _, r := range rf.Runs {
		correct = correct && r.Correct
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(rf.Runs) == 1 {
		// The acceptance driver reads the last line of standard output.
		r := rf.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints one run: every metric by name with its unit, what else
// was measured beside them and, on a traced run, the ledger.
func printRun(w io.Writer, r runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s on %s, %s: seed %d, %d pages, %d client(s), %.3g s window ==\n",
		r.Workload, r.Topology, mode, r.Seed, r.Docs, r.Clients, r.Seconds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(r.Extra))
	for name := range r.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(tw, "(%s)\t%.6g\t%s\n", name, r.Extra[name].Value, r.Extra[name].Unit)
	}
	tw.Flush()
	if r.Gate != nil {
		fmt.Fprintf(w, "gate: %d labelled queries, hit@4 %.4f, MRR %.4f, ranking digest %s\n",
			r.Gate.Queries, r.Gate.HitAt4, r.Gate.MRR, r.Gate.Digest)
	}
	if r.Ledger != nil {
		printLedger(w, *r.Ledger)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "FAIL", p)
	}
}

// printLedger prints each layer's self time and its share of the median
// request, outermost layer first.
func printLedger(w io.Writer, lg ledger) {
	var total float64
	for _, l := range layerOrder {
		total += lg.Self[l].P50
	}
	fmt.Fprintf(w, "ledger over %d traced requests (self time per request; layers sum to %.1f%% of client latency):\n",
		lg.Requests, lg.CoveragePct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  layer\tp50 ms\tp95 ms\tshare of p50 sum\n")
	for _, l := range layerOrder {
		d := lg.Self[l]
		if d.P95 == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * d.P50 / total
		}
		fmt.Fprintf(tw, "  %s\t%.4f\t%.4f\t%.1f%%\n", l, d.P50, d.P95, share)
	}
	tw.Flush()
}
