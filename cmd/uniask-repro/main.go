// Command uniask-repro regenerates the paper's evaluation on the synthetic
// substrate. It has three verbs, all sized by the same scale flags (-docs,
// -human, -keyword, -seed; defaults experiments.DefaultScale):
//
//	uniask-repro [tables] [-table 1-5] [-figure 2|3] [-pilot] [-postlaunch] [-futurework]
//	uniask-repro eval [-dataset human|keyword] [-split test|validation]
//	                  [-mode hybrid|text|vector] [-k 15] [-n 50] [-rrfc 60]
//	                  [-boost 0] [-expansion none|qga|mq1|mq2] [-sweep-k]
//	uniask-repro corpus [-out DIR]
//
// tables prints the tables and figures of §7–§9 and the §11 future-work
// experiments (all of them without a selection flag). eval prints the IR
// metrics of one retrieval configuration, or the §7 vector-K sweep. corpus
// prints the generated corpus's statistics and, with -out, exports it as
// one HTML file per page plus the human and keyword query datasets as JSON.
//
// A flag value no verb knows exits 2 before anything runs, and the index is
// built only when a selection reads it (Figure 2 and corpus never do).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"uniask/internal/eval"
	"uniask/internal/experiments"
	"uniask/internal/kb"
	"uniask/internal/search"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one verb bound to its flags.
type command interface {
	// check refuses flag values the verb does not know.
	check() error
	run(ctx context.Context, stdout, stderr io.Writer) error
}

// run parses args and runs the verb they name: exit status 2 for a usage
// error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if err := cmd.run(context.Background(), stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "uniask-repro:", err)
		return 1
	}
	return 0
}

// verbs are the commands by name, each registering its own flags on fs.
var verbs = map[string]func(fs *flag.FlagSet, s *experiments.Scale) command{
	"tables": tablesFlags,
	"eval":   evalFlags,
	"corpus": corpusFlags,
}

// parse picks the verb (tables when args start with a flag), registers the
// shared scale flags and the verb's own, and checks their values. Every
// usage error has been reported on stderr when parse returns it.
func parse(args []string, stderr io.Writer) (command, error) {
	usage := func(err error) (command, error) {
		fmt.Fprintln(stderr, "uniask-repro:", err)
		return nil, err
	}
	name := "tables"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	verb, ok := verbs[name]
	if !ok {
		return usage(fmt.Errorf("unknown verb %q: want tables, eval or corpus", name))
	}
	fs := flag.NewFlagSet("uniask-repro "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := scaleFlags(fs)
	cmd := verb(fs, scale)
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has reported it
	}
	switch {
	case fs.NArg() > 0:
		return usage(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case scale.Docs <= 0:
		return usage(fmt.Errorf("-docs %d: want at least one document", scale.Docs))
	}
	if err := cmd.check(); err != nil {
		return usage(err)
	}
	return cmd, nil
}

// scaleFlags registers the scale flags every verb shares, with
// experiments.DefaultScale as their defaults.
func scaleFlags(fs *flag.FlagSet) *experiments.Scale {
	s := experiments.DefaultScale
	fs.IntVar(&s.Docs, "docs", s.Docs, "corpus size (paper: 59308)")
	fs.IntVar(&s.Human, "human", s.Human, "human dataset size (paper: 2700)")
	fs.IntVar(&s.Keyword, "keyword", s.Keyword, "keyword dataset size (paper: 800)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "generation seed")
	return &s
}

// setup builds the experimental environment, reporting progress on stderr.
func setup(ctx context.Context, s experiments.Scale, stderr io.Writer) (*experiments.Env, error) {
	start := time.Now()
	fmt.Fprintf(stderr, "setup: generating %d docs, indexing...\n", s.Docs)
	env, err := experiments.Setup(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("setup failed: %w", err)
	}
	stats := env.Corpus.ComputeStats()
	fmt.Fprintf(stderr, "setup done in %v: %d docs, %.0f avg words, %.1f avg paragraphs, %d chunks indexed\n",
		time.Since(start).Round(time.Millisecond), stats.Docs, stats.AvgWords, stats.AvgParagraphs, env.Engine.Index.Len())
	return env, nil
}

// ---------------------------------------------------------------------------
// tables

type tables struct {
	scale               *experiments.Scale
	table, figure       int
	pilot, post, future bool
}

func tablesFlags(fs *flag.FlagSet, s *experiments.Scale) command {
	t := &tables{scale: s}
	fs.IntVar(&t.table, "table", 0, "run a single table (1-5)")
	fs.IntVar(&t.figure, "figure", 0, "run a single figure (2-3)")
	fs.BoolVar(&t.pilot, "pilot", false, "run the §8 pilot-phase simulations")
	fs.BoolVar(&t.post, "postlaunch", false, "run the post-launch ticket-reduction analysis")
	fs.BoolVar(&t.future, "futurework", false, "run the §11 future-work experiments (adapter, knowledge graph)")
	return t
}

func (t *tables) check() error {
	if t.table < 0 || t.table > 5 {
		return fmt.Errorf("-table %d: want 1-5", t.table)
	}
	if t.figure != 0 && t.figure != 2 && t.figure != 3 {
		return fmt.Errorf("-figure %d: want 2 or 3", t.figure)
	}
	return nil
}

// section is one part of the tables output: whether it is selected, its
// name for errors, and how it is computed.
type section struct {
	selected bool
	name     string
	run      func(*experiments.Env) (fmt.Stringer, error)
}

func (t *tables) run(ctx context.Context, stdout, stderr io.Writer) error {
	all := t.table == 0 && t.figure == 0 && !t.pilot && !t.post && !t.future
	table := func(n int) bool { return all || t.table == n }
	sections := []section{
		{table(1), "table 1", func(e *experiments.Env) (fmt.Stringer, error) { return e.Table1(), nil }},
		{table(2), "table 2", func(e *experiments.Env) (fmt.Stringer, error) { return e.Table2(), nil }},
		{table(3), "table 3", func(e *experiments.Env) (fmt.Stringer, error) { return e.Table3(), nil }},
		{table(4), "table 4", func(e *experiments.Env) (fmt.Stringer, error) { return e.Table4(ctx) }},
		{table(5), "table 5", func(e *experiments.Env) (fmt.Stringer, error) { return e.Table5(ctx) }},
		{all || t.pilot, "pilots", func(e *experiments.Env) (fmt.Stringer, error) { return e.Pilots(ctx) }},
		{table(5), "groundedness", func(e *experiments.Env) (fmt.Stringer, error) { return e.Groundedness(ctx) }},
		{all || t.post, "post-launch", func(e *experiments.Env) (fmt.Stringer, error) { return e.PostLaunch(ctx, 600) }},
		{all || t.future, "adapter experiment", func(e *experiments.Env) (fmt.Stringer, error) { return e.FutureWorkAdapter(ctx) }},
		{all || t.future, "knowledge-graph experiment", func(e *experiments.Env) (fmt.Stringer, error) {
			return e.FutureWorkKnowledgeGraph(ctx)
		}},
		{all || t.figure == 2, "figure 2", func(*experiments.Env) (fmt.Stringer, error) { return experiments.Figure2(), nil }},
		{all || t.figure == 3, "figure 3", func(e *experiments.Env) (fmt.Stringer, error) { return e.Figure3(ctx) }},
	}
	// Figure 2 runs on its own virtual clock; every other section reads the
	// environment, so it is built only when one of them is selected.
	var env *experiments.Env
	if all || t.table != 0 || t.figure == 3 || t.pilot || t.post || t.future {
		var err error
		if env, err = setup(ctx, *t.scale, stderr); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if !s.selected {
			continue
		}
		out, err := s.run(env)
		if err != nil {
			return fmt.Errorf("%s failed: %w", s.name, err)
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}

// ---------------------------------------------------------------------------
// eval

type evalCmd struct {
	scale                     *experiments.Scale
	dataset, split, mode, exp string
	sweepK                    bool
	opts                      search.Options // -k -n -rrfc -boost; check adds the mode and expansion
}

func evalFlags(fs *flag.FlagSet, s *experiments.Scale) command {
	e := &evalCmd{scale: s}
	fs.StringVar(&e.dataset, "dataset", "human", "dataset: human or keyword")
	fs.StringVar(&e.split, "split", "test", "split: test or validation")
	fs.StringVar(&e.mode, "mode", "hybrid", "retrieval mode: hybrid, text, vector")
	fs.IntVar(&e.opts.VectorK, "k", 15, "vector search K")
	fs.IntVar(&e.opts.TextN, "n", 50, "text search N")
	fs.IntVar(&e.opts.RRFC, "rrfc", 60, "RRF constant")
	fs.Float64Var(&e.opts.TitleBoost, "boost", 0, "title boost multiplier (0 = off)")
	fs.StringVar(&e.exp, "expansion", "none", "query expansion: none, qga, mq1, mq2")
	fs.BoolVar(&e.sweepK, "sweep-k", false, "reproduce the §7 K sweep (overrides -k)")
	return e
}

var (
	modes      = map[string]search.Mode{"hybrid": search.Hybrid, "text": search.TextOnly, "vector": search.VectorOnly}
	expansions = map[string]search.Expansion{"none": search.NoExpansion, "qga": search.QGA, "mq1": search.MQ1, "mq2": search.MQ2}
)

func (e *evalCmd) check() error {
	if e.dataset != "human" && e.dataset != "keyword" {
		return fmt.Errorf("-dataset %q: want human or keyword", e.dataset)
	}
	if e.split != "test" && e.split != "validation" {
		return fmt.Errorf("-split %q: want test or validation", e.split)
	}
	var ok bool
	if e.opts.Mode, ok = modes[e.mode]; !ok {
		return fmt.Errorf("-mode %q: want hybrid, text or vector", e.mode)
	}
	if e.opts.Expansion, ok = expansions[e.exp]; !ok {
		return fmt.Errorf("-expansion %q: want none, qga, mq1 or mq2", e.exp)
	}
	return nil
}

func (e *evalCmd) run(ctx context.Context, stdout, stderr io.Writer) error {
	env, err := setup(ctx, *e.scale, stderr)
	if err != nil {
		return err
	}
	ds := map[string]kb.Dataset{
		"human/test": env.HumanTest, "human/validation": env.HumanVal,
		"keyword/test": env.KeywordTest, "keyword/validation": env.KeywordVal,
	}[e.dataset+"/"+e.split]
	if e.sweepK {
		// The paper explored K in {3,5,10,...,50} on both validation sets
		// and picked 15.
		fmt.Fprintf(stdout, "K sweep on %s (%s split):\n", e.dataset, e.split)
		fmt.Fprintf(stdout, "%4s %8s %8s %8s\n", "K", "hit@4", "r@50", "MRR")
		for _, k := range []int{3, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50} {
			o := e.opts
			o.VectorK = k
			m := eval.Evaluate(ds, env.UniAskRetriever(o)).OverAll
			fmt.Fprintf(stdout, "%4d %8.4f %8.4f %8.4f\n", k, m.Hit4, m.R50, m.MRR)
		}
		return nil
	}
	s := eval.Evaluate(ds, env.UniAskRetriever(e.opts))
	fmt.Fprintf(stdout, "dataset=%s split=%s queries=%d answered=%.1f%%\n",
		e.dataset, e.split, s.Queries, 100*s.AnsweredRate())
	vals := s.OverAll.Values()
	for i, name := range eval.MetricNames {
		fmt.Fprintf(stdout, "%-8s %8.4f\n", name, vals[i])
	}
	return nil
}

// ---------------------------------------------------------------------------
// corpus

type corpus struct {
	scale *experiments.Scale
	out   string
}

func corpusFlags(fs *flag.FlagSet, s *experiments.Scale) command {
	c := &corpus{scale: s}
	fs.StringVar(&c.out, "out", "", "output directory (omit to skip export)")
	return c
}

func (c *corpus) check() error { return nil }

// exportQuery is one query of an exported dataset file.
type exportQuery struct {
	ID       string   `json:"id"`
	Text     string   `json:"text"`
	Relevant []string `json:"relevant"`
	Answer   string   `json:"answer,omitempty"`
}

func (c *corpus) run(_ context.Context, stdout, _ io.Writer) error {
	s := *c.scale
	generated := kb.Generate(kb.GenConfig{Docs: s.Docs, Seed: s.Seed})
	st := generated.ComputeStats()
	fmt.Fprintf(stdout, "documents:      %d\n", st.Docs)
	fmt.Fprintf(stdout, "avg words:      %.1f (paper: 248)\n", st.AvgWords)
	fmt.Fprintf(stdout, "avg paragraphs: %.1f (paper: 7.6)\n", st.AvgParagraphs)
	fmt.Fprintf(stdout, "dup clusters:   %d (%d documents, %.1f%%)\n",
		st.Clusters, st.ClusteredDocs, 100*float64(st.ClusteredDocs)/float64(st.Docs))
	if c.out == "" {
		return nil
	}
	pagesDir := filepath.Join(c.out, "pages")
	if err := os.MkdirAll(pagesDir, 0o755); err != nil {
		return err
	}
	for _, d := range generated.Docs {
		if err := os.WriteFile(filepath.Join(pagesDir, d.ID+".html"), []byte(d.HTML), 0o644); err != nil {
			return err
		}
	}
	for name, ds := range map[string]kb.Dataset{
		"human":   generated.HumanDataset(s.Human, s.Seed+100),
		"keyword": generated.KeywordDataset(s.Keyword, s.Seed+200),
	} {
		var qs []exportQuery
		for _, q := range ds.Queries {
			qs = append(qs, exportQuery{ID: q.ID, Text: q.Text, Relevant: q.Relevant, Answer: q.Answer})
		}
		data, err := json.MarshalIndent(qs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(c.out, name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "exported %d pages and query datasets to %s\n", len(generated.Docs), c.out)
	return nil
}
