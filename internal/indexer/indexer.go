// Package indexer implements UniAsk's indexing service (§3): it consumes
// the change set of an ingester pass, splits the pages into chunks with the
// HTML-paragraph strategy, populates chunk metadata (including the
// LLM-generated summary and keyword list the paper adds), computes the
// title and content embeddings, and feeds the search index.
package indexer

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"uniask/internal/chunker"
	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/ingest"
	"uniask/internal/llm"
	"uniask/internal/vector"
)

// Config controls indexing behavior. Chunks target
// chunker.DefaultChunkTokens, as deployed.
type Config struct {
	// EnrichSummary asks the LLM for a document summary stored in the
	// retrievable summary field.
	EnrichSummary bool
	// KeywordsFromTitle populates the kwTitle searchable field with LLM
	// keywords extracted from the title (HSS-KT, Table 4).
	KeywordsFromTitle bool
	// KeywordsFromTitleContent populates the kwTitleContent field with LLM
	// keywords from title and content (HSS-KTC, Table 4).
	KeywordsFromTitleContent bool
}

// Indexer turns extracted documents into index chunks.
type Indexer struct {
	cfg      Config
	index    index.Writer
	embedder embedding.Embedder
	client   llm.Client
	splitter *chunker.HTMLSplitter
}

// Schema returns the index schema the indexer writes, extending the default
// UniAsk schema with the optional keyword-enrichment searchable fields.
func Schema() index.Schema {
	s := index.DefaultSchema()
	s["kwTitle"] = index.FieldAttr{Searchable: true}
	s["kwTitleContent"] = index.FieldAttr{Searchable: true}
	return s
}

// New creates an indexer feeding ix — a monolithic *index.Index or the
// sharded facade; the indexer only needs the write surface.
func New(ix index.Writer, emb embedding.Embedder, client llm.Client, cfg Config) *Indexer {
	return &Indexer{
		cfg:      cfg,
		index:    ix,
		embedder: emb,
		client:   client,
		splitter: &chunker.HTMLSplitter{},
	}
}

// chunkID derives the chunk identifier from the parent document id.
func chunkID(docID string, ordinal int) string {
	return fmt.Sprintf("%s#%d", docID, ordinal)
}

// ParentOf recovers the KB document id from a chunk id.
func ParentOf(chunkID string) string {
	if i := strings.LastIndexByte(chunkID, '#'); i >= 0 {
		return chunkID[:i]
	}
	return chunkID
}

// batchItem carries one document's precomputed artifacts from the parallel
// preparation stage to the sequential index feed.
type batchItem struct {
	doc     ingest.Extracted
	chunks  []chunker.Chunk
	summary string
	kwTitle string
	kwTC    []string
	titleV  vector.Vector
	chunkV  []vector.Vector
	err     error
}

// Index applies one change set to the index, in order: a deletion
// tombstones the page's chunks, a modified page replaces its previous
// chunks, a new page is added. The CPU- and LLM-heavy per-page work
// (chunking, enrichment, embedding) runs on parallel workers before anything
// is written, so a page whose preparation fails keeps its indexed version.
//
// It returns how many leading docs were applied in full. On error the rest
// were not: pages of a failed bulk write may be partly indexed, and offering
// docs[applied:] again replaces them. Which pages are already indexed is one
// HasParents question for the whole change set, asked before the first
// write; when the store cannot answer it, nothing is written. A page fed or
// deleted earlier in the same call is asked about again when it comes up,
// so a change set naming one page twice applies both in order.
//
// Runs of pure additions (no deletions, no replacements of already-indexed
// parents) feed the index through AddBulk, which a sharded index turns into
// a parallel per-shard build; items that delete or replace fall back to the
// sequential path so replacement semantics stay exact. Either way the
// per-index insertion order is identical to a one-at-a-time loop, so
// insertion-order-sensitive structures (the HNSW graphs) are deterministic.
func (in *Indexer) Index(ctx context.Context, docs []ingest.Extracted) (applied int, err error) {
	jobs := make(chan int)
	items := make([]batchItem, len(docs))
	var wg sync.WaitGroup
	for w := min(len(docs), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				items[i] = in.prepare(ctx, docs[i])
			}
		}()
	}
	for i := range docs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	present, err := in.presence(items)
	if err != nil {
		return 0, err
	}
	var pending []index.Document
	pendingParents := make(map[string]bool)
	touched := make(map[string]bool) // pages written earlier in this call
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := in.index.AddBulk(pending); err != nil {
			return fmt.Errorf("indexer: add: %w", err)
		}
		applied += len(pendingParents) // one entry per pending page
		pending = nil
		pendingParents = make(map[string]bool)
		return nil
	}
	for i := range items {
		it := &items[i]
		if it.err != nil {
			if err := flush(); err != nil {
				return applied, err
			}
			return applied, it.err
		}
		id := it.doc.ID
		if !it.doc.Deleted && touched[id] {
			// The batch answer predates this call's own writes to the page.
			if pendingParents[id] {
				if err := flush(); err != nil {
					return applied, err
				}
			}
			again, err := in.index.HasParents([]string{id})
			if err != nil {
				return applied, fmt.Errorf("indexer: presence: %w", err)
			}
			present[i] = again[0]
		}
		touched[id] = true
		// Deletions, replacements of indexed parents, and replacements of
		// parents still sitting in the pending bulk all need the sequential
		// delete-then-add path.
		if it.doc.Deleted || present[i] {
			if err := flush(); err != nil {
				return applied, err
			}
			if err := in.feed(it, present[i]); err != nil {
				return applied, err
			}
			applied++
			continue
		}
		pending = append(pending, in.chunkDocs(it)...)
		pendingParents[id] = true
	}
	return applied, flush()
}

// presence asks the index, once, which of the prepared pages it holds:
// present is aligned with items. Deletions need no answer, and neither do
// the pages from the first failed preparation on, which are not written.
func (in *Indexer) presence(items []batchItem) ([]bool, error) {
	present := make([]bool, len(items))
	var ids []string
	var at []int
	for i, it := range items {
		if it.err != nil {
			break
		}
		if !it.doc.Deleted {
			ids = append(ids, it.doc.ID)
			at = append(at, i)
		}
	}
	if len(ids) == 0 {
		return present, nil
	}
	answers, err := in.index.HasParents(ids)
	if err != nil {
		return nil, fmt.Errorf("indexer: presence: %w", err)
	}
	for j, i := range at {
		present[i] = answers[j]
	}
	return present, nil
}

// prepare runs the parallelizable stage for one document.
func (in *Indexer) prepare(ctx context.Context, doc ingest.Extracted) batchItem {
	it := batchItem{doc: doc}
	if err := ctx.Err(); err != nil {
		it.err = err
		return it
	}
	if doc.Deleted {
		return it
	}
	it.chunks = in.splitter.SplitDocument(doc.Doc)
	if len(it.chunks) == 0 {
		return it
	}
	if in.cfg.EnrichSummary {
		resp, err := in.client.Complete(ctx, llm.BuildSummaryPrompt(doc.Title, doc.Doc.Text()))
		if err != nil {
			it.err = fmt.Errorf("indexer: summary for %s: %w", doc.ID, err)
			return it
		}
		it.summary = resp.Content
	}
	if in.cfg.KeywordsFromTitle {
		resp, err := in.client.Complete(ctx, llm.BuildKeywordsPrompt(doc.Title, ""))
		if err != nil {
			it.err = fmt.Errorf("indexer: title keywords for %s: %w", doc.ID, err)
			return it
		}
		it.kwTitle = resp.Content
	}
	it.titleV = in.embedder.Embed(doc.Title)
	it.chunkV = make([]vector.Vector, len(it.chunks))
	it.kwTC = make([]string, len(it.chunks))
	for i, ch := range it.chunks {
		it.chunkV[i] = in.embedder.Embed(ch.Text)
		if in.cfg.KeywordsFromTitleContent {
			resp, err := in.client.Complete(ctx, llm.BuildKeywordsPrompt(doc.Title, ch.Text))
			if err != nil {
				it.err = fmt.Errorf("indexer: content keywords for %s: %w", doc.ID, err)
				return it
			}
			it.kwTC[i] = resp.Content
		}
	}
	return it
}

// feed applies one prepared document to the index (single-threaded):
// present says whether the page is indexed and its chunks must go first.
func (in *Indexer) feed(it *batchItem, present bool) error {
	if it.doc.Deleted {
		in.index.DeleteParent(it.doc.ID)
		return nil
	}
	if present {
		in.index.DeleteParent(it.doc.ID)
	}
	if err := in.index.AddBulk(in.chunkDocs(it)); err != nil {
		return fmt.Errorf("indexer: add %s: %w", it.doc.ID, err)
	}
	return nil
}

// chunkDocs builds the index documents of one prepared item.
func (in *Indexer) chunkDocs(it *batchItem) []index.Document {
	out := make([]index.Document, 0, len(it.chunks))
	for i, ch := range it.chunks {
		fields := map[string]string{
			"title":   it.doc.Title,
			"content": ch.Text,
			"domain":  it.doc.Domain,
			"section": it.doc.Section,
			"topic":   it.doc.Topic,
		}
		if it.summary != "" {
			fields["summary"] = it.summary
		}
		if it.kwTitle != "" {
			fields["kwTitle"] = it.kwTitle
		}
		if it.kwTC[i] != "" {
			fields["kwTitleContent"] = it.kwTC[i]
		}
		out = append(out, index.Document{
			ID:       chunkID(it.doc.ID, ch.Ordinal),
			ParentID: it.doc.ID,
			Fields:   fields,
			Vectors: map[string]vector.Vector{
				"titleVector":   it.titleV,
				"contentVector": it.chunkV[i],
			},
		})
	}
	return out
}
