package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uniask/internal/experiments"
	"uniask/internal/flagdoc"
	"uniask/internal/search"
)

func mustParse(t *testing.T, args ...string) command {
	t.Helper()
	cmd, err := parse(args, io.Discard)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cmd
}

// TestVerbsParseTheirFlags: the default verb is tables, every verb reads the
// one scale flag set with experiments.DefaultScale as its defaults, and each
// verb's own flags land where it reads them.
func TestVerbsParseTheirFlags(t *testing.T) {
	tb := mustParse(t).(*tables)
	if *tb.scale != experiments.DefaultScale || tb.table != 0 || tb.figure != 0 || tb.pilot || tb.post || tb.future {
		t.Fatalf("no arguments: %+v scale %+v, want every section at DefaultScale", tb, *tb.scale)
	}
	tb = mustParse(t, "tables", "-docs", "50", "-human", "7", "-keyword", "3", "-seed", "9",
		"-table", "4", "-figure", "3", "-pilot", "-postlaunch", "-futurework").(*tables)
	if (*tb.scale != experiments.Scale{Docs: 50, Human: 7, Keyword: 3, Seed: 9}) ||
		tb.table != 4 || tb.figure != 3 || !tb.pilot || !tb.post || !tb.future {
		t.Fatalf("tables flags: %+v scale %+v", tb, *tb.scale)
	}

	ev := mustParse(t, "eval").(*evalCmd)
	want := search.Options{TextN: 50, VectorK: 15, RRFC: 60}
	if *ev.scale != experiments.DefaultScale || ev.dataset != "human" || ev.split != "test" || ev.sweepK || !reflect.DeepEqual(ev.opts, want) {
		t.Fatalf("eval defaults: %+v", ev)
	}
	ev = mustParse(t, "eval", "-dataset", "keyword", "-split", "validation", "-mode", "vector", "-k", "5",
		"-n", "20", "-rrfc", "30", "-boost", "50", "-expansion", "mq2", "-sweep-k").(*evalCmd)
	want = search.Options{Mode: search.VectorOnly, Expansion: search.MQ2, TextN: 20, VectorK: 5, RRFC: 30, TitleBoost: 50}
	if ev.dataset != "keyword" || ev.split != "validation" || !ev.sweepK || !reflect.DeepEqual(ev.opts, want) {
		t.Fatalf("eval flags: %+v", ev)
	}

	co := mustParse(t, "corpus", "-docs", "12", "-out", "dir").(*corpus)
	if co.scale.Docs != 12 || co.scale.Human != experiments.DefaultScale.Human || co.out != "dir" {
		t.Fatalf("corpus flags: %+v scale %+v", co, *co.scale)
	}
}

// TestBadFlagsAreRefused: a value no verb knows exits 2 and runs nothing.
// Before the one front end, -mode vectr ran hybrid, -expansion bogus ran no
// expansion, -table 6 and -figure 4 printed nothing and exited 0, and
// -docs 0 ran the whole DefaultScale.
func TestBadFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"eval", "-mode", "vectr"},
		{"eval", "-expansion", "bogus"},
		{"eval", "-dataset", "faq"},
		{"eval", "-split", "train"},
		{"-table", "6"},
		{"-table", "-1"},
		{"-figure", "4"},
		{"-docs", "0"},
		{"corpus", "-docs", "-3"},
		{"corpus", "-table", "1"},
		{"tables", "extra"},
		{"figures"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, a message and nothing run", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestFigure2Report: Figure 2 alone builds no environment and prints the
// deterministic load-test report followed by the llm stage line.
func TestFigure2Report(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figure", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("-figure 2 reported a set-up: %q", stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Figure 2: Load test on the LLM service\n",
		"total: 7199 requests, 227 failed (3.2%)\n",
		"  pipeline stages:",
		"\n    llm:           7199   227 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestCorpusExport: the corpus verb writes one HTML file per page and the
// two query datasets as JSON.
func TestCorpusExport(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"corpus", "-docs", "50", "-human", "8", "-keyword", "4", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "documents:      50\n") || !strings.Contains(stdout.String(), "exported 50 pages") {
		t.Errorf("stdout = %q", stdout.String())
	}
	pages, err := filepath.Glob(filepath.Join(dir, "pages", "*.html"))
	if err != nil || len(pages) != 50 {
		t.Fatalf("%d pages exported (err %v), want 50", len(pages), err)
	}
	for name, n := range map[string]int{"human": 8, "keyword": 4} {
		data, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var qs []exportQuery
		if err := json.Unmarshal(data, &qs); err != nil {
			t.Fatalf("%s.json: %v", name, err)
		}
		if len(qs) != n || qs[0].Text == "" || len(qs[0].Relevant) == 0 {
			t.Errorf("%s.json: %d queries, first %+v; want %d with text and relevant pages", name, len(qs), qs[0], n)
		}
	}
}

// TestFlagTableMatchesOperationsDoc fails when a flag of any verb has no row
// in docs/OPERATIONS.md or a row names a flag no verb registers.
func TestFlagTableMatchesOperationsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	union := flag.NewFlagSet("uniask-repro", flag.ContinueOnError)
	for name, verb := range verbs {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		verb(fs, scaleFlags(fs))
		fs.VisitAll(func(f *flag.Flag) {
			if union.Lookup(f.Name) == nil {
				union.Var(f.Value, f.Name, f.Usage)
			}
		})
	}
	for _, d := range flagdoc.Drift(union, string(doc), "## Reproducing the paper") {
		t.Error(d)
	}
}
