// Command benchjson converts `go test -bench` output on stdin into a JSON
// report on stdout, so the Makefile's bench target can emit a
// machine-readable BENCH_query.json next to the human-readable log.
//
//	go test -bench . -benchmem ./internal/index/ | benchjson > BENCH_query.json
//
// A transcript with a FAIL or panic: line is a broken run: benchjson then
// writes nothing to stdout and exits 1, so a failing benchmark cannot pass
// for a short report (a shell pipeline reports the last command's status).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the b.N the runner settled on.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only under -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds b.ReportMetric extras (e.g. docs/sec, p99-ns/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkSearchText-8   17612   67289 ns/op   3066 B/op   10 allocs/op
//
// Custom b.ReportMetric units print between ns/op and B/op, e.g.
//
//	BenchmarkIngestSegmented-8   21097   56237 ns/op   17782 docs/sec   5731 B/op   77 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op((?:\s+[\d.eE+-]+ \S+)*)\s*$`)

// metricPair splits the tail of a benchmark line into value/unit pairs.
var metricPair = regexp.MustCompile(`([\d.eE+-]+) (\S+)`)

func main() {
	baselinePath := flag.String("baseline", "",
		"JSON file with pre-change numbers to embed under \"baseline\" (skipped when absent)")
	note := flag.String("note", "",
		"free-text annotation embedded under \"note\" (methodology caveats, measurement context)")
	flag.Parse()

	results, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out := map[string]any{"benchmarks": results}
	if *note != "" {
		out["note"] = *note
	}
	if *baselinePath != "" {
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var baseline any
			if err := json.Unmarshal(raw, &baseline); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
				os.Exit(1)
			}
			out["baseline"] = baseline
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads a `go test -bench` transcript, echoing every line to echo so
// the terminal still shows the usual go test chatter, and returns the
// benchmark results. It errors when the transcript reports a failure.
func parse(in io.Reader, echo io.Writer) ([]Result, error) {
	var (
		results []Result
		failed  error
	)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if failed == nil && (strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:")) {
			failed = fmt.Errorf("benchmark run failed: %s", line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			switch pair[2] {
			case "B/op":
				b, _ := strconv.ParseInt(pair[1], 10, 64)
				r.BytesPerOp = &b
			case "allocs/op":
				a, _ := strconv.ParseInt(pair[1], 10, 64)
				r.AllocsPerOp = &a
			default:
				v, err := strconv.ParseFloat(pair[1], 64)
				if err != nil {
					continue
				}
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[pair[2]] = v
			}
		}
		results = append(results, r)
	}
	return results, errors.Join(sc.Err(), failed)
}
