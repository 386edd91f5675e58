// Package ingest implements UniAsk's ingestion service (§3): it extracts
// text and metadata from each HTML document in the knowledge base and keeps
// the downstream index updated by polling for modifications every 15
// minutes (a cron-triggered serverless function in the deployment; whoever
// owns the schedule calls the pass here). A pass turns the source's page
// listing into the set of new, changed and vanished pages and hands it to
// the indexing service directly.
package ingest

import (
	"hash/fnv"
	"sort"
	"time"

	"uniask/internal/htmlx"
)

// Page is one raw knowledge-base page as served by the source system.
type Page struct {
	// ID is the KB document id.
	ID string
	// HTML is the raw page markup.
	HTML string
}

// Source is the knowledge-base backend the ingester polls.
type Source interface {
	// Pages returns the current full listing of pages.
	Pages() []Page
}

// Extracted is the ingestion output for one page: the parsed document plus
// the editor-provided metadata, ready for chunking and indexing.
type Extracted struct {
	// ID is the KB document id.
	ID string
	// Title is the extracted page title.
	Title string
	// Doc is the structured extraction (paragraphs with offsets).
	Doc htmlx.Document
	// Domain, Section and Topic are the KB editor tags from <meta>.
	Domain, Section, Topic string
	// Deleted marks a page that disappeared from the source.
	Deleted bool

	// hash is the page fingerprint Commit records once the page is indexed.
	hash uint64
}

// DefaultPollInterval is the paper's 15-minute modification polling period.
const DefaultPollInterval = 15 * time.Minute

// Ingester detects changes in a Source between polling passes.
type Ingester struct {
	// Source is the KB backend.
	Source Source

	// hashes fingerprints every page as the index last received it.
	hashes map[string]uint64
}

// hashPage fingerprints page content for change detection.
func hashPage(html string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(html))
	return h.Sum64()
}

// extract parses one page into an Extracted message.
func extract(p Page, hash uint64) Extracted {
	doc := htmlx.Extract(p.HTML)
	return Extracted{
		ID:      p.ID,
		Title:   doc.Title,
		Doc:     doc,
		Domain:  doc.Meta["domain"],
		Section: doc.Meta["section"],
		Topic:   doc.Meta["topic"],
		hash:    hash,
	}
}

// Changes performs the detection half of one polling pass: it returns the
// new and modified pages extracted, in listing order, followed by the
// vanished pages as deletions, in id order. It is a pure function of the
// committed fingerprints and the listing: a change keeps being returned
// until Commit records that it reached the index.
func (ing *Ingester) Changes() []Extracted {
	var out []Extracted
	listed := make(map[string]uint64)
	for _, p := range ing.Source.Pages() {
		h := hashPage(p.HTML)
		// A page listed twice is compared against its earlier listing.
		prev, seen := listed[p.ID]
		if !seen {
			prev, seen = ing.hashes[p.ID]
		}
		listed[p.ID] = h
		if seen && prev == h {
			continue
		}
		out = append(out, extract(p, h))
	}
	var gone []string
	for id := range ing.hashes {
		if _, ok := listed[id]; !ok {
			gone = append(gone, id)
		}
	}
	sort.Strings(gone)
	for _, id := range gone {
		out = append(out, Extracted{ID: id, Deleted: true})
	}
	return out
}

// Commit records that applied, changes returned by Changes, reached the
// index: their fingerprints become the state the next pass compares
// against, and vanished pages are forgotten.
func (ing *Ingester) Commit(applied []Extracted) {
	if ing.hashes == nil {
		ing.hashes = make(map[string]uint64)
	}
	for _, e := range applied {
		if e.Deleted {
			delete(ing.hashes, e.ID)
		} else {
			ing.hashes[e.ID] = e.hash
		}
	}
}

// StaticSource is a Source over a fixed page set (tests, batch loads).
type StaticSource []Page

// Pages implements Source.
func (s StaticSource) Pages() []Page { return s }
