package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultsFile is what a benchmark invocation writes: every run it made.
type resultsFile struct {
	Docs    int         `json:"docs"`
	Seconds float64     `json:"seconds"`
	Clients int         `json:"clients"`
	CPUs    int         `json:"cpus"`
	Runs    []runResult `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values collects one end-to-end metric of one workload over the untraced
// runs of a results file.
func (rf resultsFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the change's runs with the base's for one metric. The
// change has regressed when its median is worse than the base's by more
// than the bound. When either side's own spread (quartile distance over
// median) is wider than the bound the medians cannot settle it: the row is
// unresolved, unless every run of the change is better than every run of
// the base.
func judge(def metricDef, base, change []float64) (ratio, spread float64, verdict string) {
	mb, mc := median(base), median(change)
	if mb == 0 {
		return 0, 0, verdictUnresolved
	}
	ratio = mc / mb
	worse := ratio - 1
	better := func(c, b float64) bool { return c < b }
	if def.Better == "higher" {
		worse = 1 - ratio
		better = func(c, b float64) bool { return c > b }
	}
	spread = max(iqrShare(base), iqrShare(change))
	if spread > def.Bound {
		for _, c := range change {
			for _, b := range base {
				if !better(c, b) {
					return ratio, spread, verdictUnresolved
				}
			}
		}
		return ratio, spread, verdictOK
	}
	if worse > def.Bound {
		return ratio, spread, verdictRegressed
	}
	return ratio, spread, verdictOK
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// ratio with its base, the spread, the bound and the verdict. It reports
// whether every row is ok.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (n)\tchange (n)\tchange/base\tspread\tbound\tverdict\n")
	allOK := true
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, c := base.values(wl.name, def.Name), change.values(wl.name, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			ratio, spread, verdict := judge(def, b, c)
			if verdict != verdictOK {
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g %s (%d)\t%.3f of %.4g\t%.1f%%\t%g%%\t%s\n",
				wl.name, def.Name, median(b), def.Unit, len(b), median(c), def.Unit, len(c),
				ratio, median(b), 100*spread, 100*def.Bound, verdict)
		}
	}
	return allOK, tw.Flush()
}
