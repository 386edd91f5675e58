package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"uniask/internal/ingest"
)

// The ask_ingest writer: an open-loop editor of the knowledge base beside
// the closed-loop readers. Every interval it edits three pages, alternately
// adds or removes one, and runs one poller pass, which is what makes the
// change searchable (DeleteParent + Add per page, then Publish: seal,
// background compaction, cache-key rotation).

// ingestInterval is the pinned pace of the writer: two passes a second.
const ingestInterval = 500 * time.Millisecond

// editsPerPass is how many existing pages each pass rewrites.
const editsPerPass = 3

// maxLatenessP95 is how late (p95) the writer may start its passes before
// the run stops being the open loop it claims to be.
const maxLatenessP95 = 50 * time.Millisecond

// passRecord is one writer pass. Latency counts from due, not from start:
// a pass that could not start on time made its change visible that much
// later.
type passRecord struct {
	due, start, end time.Time
	changed         int
	err             error
}

func (p passRecord) latency() time.Duration  { return p.end.Sub(p.due) }
func (p passRecord) lateness() time.Duration { return p.start.Sub(p.due) }

// pace calls pass(k) for k = 0, 1, 2... with pass k due at begin +
// k*interval, until ctx is done. A pass that overruns delays the next one;
// the schedule itself never slips, so the delay shows up as lateness.
func pace(ctx context.Context, begin time.Time, interval time.Duration, pass func(k int) (int, error)) []passRecord {
	var out []passRecord
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return out
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return out
		}
		rec := passRecord{due: due, start: time.Now()}
		rec.changed, rec.err = pass(k)
		rec.end = time.Now()
		out = append(out, rec)
	}
}

// kbWriter edits the page source of a single topology and polls.
type kbWriter struct {
	topo *topology
	rng  *rand.Rand
	seed int64
	// onRemoved is told when a page's removal has been published.
	onRemoved func(pageID string, at time.Time)

	basePages int // pages of the original corpus; only these are edited

	mu      sync.Mutex
	tokens  map[string]string // page id -> unique token of its latest version
	removed map[string]string // removed page id -> the token it carried
	added   string            // the added page currently live, if any
}

func newKBWriter(topo *topology, seed int64, onRemoved func(string, time.Time)) *kbWriter {
	return &kbWriter{
		topo: topo, rng: rand.New(rand.NewSource(seed + 4000)), seed: seed, onRemoved: onRemoved,
		basePages: len(topo.corpus.Docs),
		tokens:    make(map[string]string), removed: make(map[string]string),
	}
}

// token is a word no corpus page contains, unique per (seed, pass, slot).
func (w *kbWriter) token(pass, slot int) string {
	return fmt.Sprintf("zqtok%dp%ds%d", w.seed, pass, slot)
}

// withToken returns the page with a paragraph carrying token appended.
func withToken(html, token string) string {
	para := "<p>Aggiornamento operativo " + token + ".</p>\n"
	if i := strings.LastIndex(html, "</body>"); i >= 0 {
		return html[:i] + para + html[i:]
	}
	return html + para
}

// pass applies pass k's edits to the source and runs the poller.
func (w *kbWriter) pass(k int) (int, error) {
	w.mu.Lock()
	var removedNow string
	w.topo.source.update(func(pages []ingest.Page) []ingest.Page {
		for slot := 0; slot < editsPerPass; slot++ {
			i := w.rng.Intn(w.basePages)
			tok := w.token(k, slot)
			// Always from the original page, so pages do not grow.
			pages[i].HTML = withToken(w.topo.corpus.Docs[i].HTML, tok)
			w.tokens[pages[i].ID] = tok
		}
		if w.added == "" {
			id, tok := fmt.Sprintf("kbadd%05d", k), w.token(k, editsPerPass)
			src := w.topo.corpus.Docs[w.rng.Intn(w.basePages)]
			pages = append(pages, ingest.Page{ID: id, HTML: withToken(src.HTML, tok)})
			w.tokens[id] = tok
			w.added = id
		} else {
			removedNow = w.added
			pages = pages[:len(pages)-1] // the added page is always last
			w.removed[removedNow] = w.tokens[removedNow]
			delete(w.tokens, removedNow)
			w.added = ""
		}
		return pages
	})
	w.mu.Unlock()

	var start time.Time
	traced := w.topo.rec.background()
	if traced {
		start = time.Now()
	}
	changed, err := w.topo.poll()
	if traced {
		w.topo.rec.addSpan(span{Layer: layerIngest, Name: "ingest.pass", N: changed,
			Start: w.topo.rec.since(start), End: w.topo.rec.since(time.Now()), Err: err != nil})
	}
	if err == nil && removedNow != "" && w.onRemoved != nil {
		w.onRemoved(removedNow, time.Now())
	}
	return changed, err
}

// verify checks, over the same HTTP API the readers use, that every edited
// or added page is found by the unique token of its latest version and that
// no removed page is found by the token it carried.
func (w *kbWriter) verify(ctx context.Context, c *apiClient) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var problems []string
	contains := func(docs []doc, page string) bool {
		for _, d := range docs {
			if d.Parent == page {
				return true
			}
		}
		return false
	}
	for page, tok := range w.tokens {
		docs, err := c.search(ctx, tok)
		if err != nil {
			problems = append(problems, fmt.Sprintf("verify %s: %v", page, err))
		} else if !contains(docs, page) {
			problems = append(problems, fmt.Sprintf("edited page %s not found by its token %s", page, tok))
		}
	}
	for page, tok := range w.removed {
		docs, err := c.search(ctx, tok)
		if err != nil {
			problems = append(problems, fmt.Sprintf("verify %s: %v", page, err))
		} else if contains(docs, page) {
			problems = append(problems, fmt.Sprintf("removed page %s still returned", page))
		}
	}
	return problems
}
