// Package baseline reproduces the pre-existing UniCredit intranet search
// engine that UniAsk replaced and is compared against in Table 1. Per §2 of
// the paper, that system "only performs an exact keyword matching on the
// documents in the knowledge base": no stemming, no synonym handling, no
// natural-language support. A query only returns documents that contain
// every query term verbatim, which is why the engine retrieved non-empty
// results for just 19.1% of the expert-authored natural-language questions
// while serving its own keyword-style log queries well.
package baseline

import (
	"sort"

	"uniask/internal/textproc"
)

// Result is one ranked document.
type Result struct {
	// DocID is the knowledge-base document id.
	DocID string
	// Score is the ranking score (total term frequency of the query terms).
	Score float64
}

// Engine is the exact-keyword-match search engine.
type Engine struct {
	analyzer *textproc.Analyzer
	postings map[string]map[int]int // term -> doc ordinal -> tf
	ids      []string
	// MinTermLen drops very short query terms (articles, prepositions) the
	// legacy engine ignored. Default 3.
	MinTermLen int
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		analyzer:   textproc.Raw(),
		postings:   make(map[string]map[int]int),
		MinTermLen: 3,
	}
}

// Add indexes a document's raw text (title plus body).
func (e *Engine) Add(docID, text string) {
	ord := len(e.ids)
	e.ids = append(e.ids, docID)
	for _, term := range e.analyzer.AnalyzeTerms(text) {
		m := e.postings[term]
		if m == nil {
			m = make(map[int]int)
			e.postings[term] = m
		}
		m[ord]++
	}
}

// legacyQueryStopwords are the generic Italian words the old engine's query
// parser discarded before matching: articles/prepositions (via the standard
// stop-word list) plus the interrogative scaffolding employees type in
// questions ("come posso...", "cosa devo fare per..."). Content terms —
// including every synonym — are matched verbatim, which is exactly why the
// engine failed on most natural-language questions: any colloquial synonym
// absent from the editorial text empties the conjunction.
var legacyQueryStopwords = map[string]bool{
	"come": true, "posso": true, "cosa": true, "devo": true, "fare": true,
	"possibile": true, "quali": true, "qual": true, "modo": true,
	"procedo": true, "procedere": true, "aiutarmi": true, "aiutare": true,
	"serve": true, "sapere": true, "vorrei": true, "capire": true,
	"potete": true, "chiede": true, "chiedere": true, "bisogna": true,
	"prassi": true, "passaggi": true, "corretta": true, "corretto": true,
	"prevede": true, "significato": true, "gestisce": true, "risolve": true,
	"compare": true, "segnala": true, "quando": true, "mentre": true,
	"durante": true, "dopo": true, "prima": true, "ogni": true,
}

// Search returns up to n documents containing every (sufficiently long)
// query term verbatim, ranked by total term frequency. It returns nil when
// no document matches all terms — the legacy engine's signature failure
// mode on natural-language questions.
func (e *Engine) Search(query string, n int) []Result {
	if n <= 0 {
		return nil
	}
	var terms []string
	for _, t := range e.analyzer.AnalyzeTerms(query) {
		if len([]rune(t)) < e.MinTermLen {
			continue
		}
		if textproc.IsStopword(t) || legacyQueryStopwords[t] {
			continue
		}
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return nil
	}
	// Conjunctive intersection, smallest posting list first.
	sort.Slice(terms, func(i, j int) bool {
		return len(e.postings[terms[i]]) < len(e.postings[terms[j]])
	})
	first, ok := e.postings[terms[0]]
	if !ok {
		return nil
	}
	scores := make(map[int]float64, len(first))
	for doc, tf := range first {
		scores[doc] = float64(tf)
	}
	for _, t := range terms[1:] {
		pl, ok := e.postings[t]
		if !ok {
			return nil
		}
		for doc := range scores {
			if tf, in := pl[doc]; in {
				scores[doc] += float64(tf)
			} else {
				delete(scores, doc)
			}
		}
		if len(scores) == 0 {
			return nil
		}
	}
	out := make([]Result, 0, len(scores))
	for doc, s := range scores {
		out = append(out, Result{DocID: e.ids[doc], Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
