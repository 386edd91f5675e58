package indexer

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"uniask/internal/embedding"
	"uniask/internal/index"
	"uniask/internal/ingest"
	"uniask/internal/kb"
	"uniask/internal/llm"
)

func testSetup(cfg Config) (*Indexer, *index.Index) {
	ix := index.New(index.Config{Schema: Schema()})
	emb := embedding.NewSynth(64, nil)
	client := llm.NewSim(llm.DefaultBehavior())
	return New(ix, emb, client, cfg), ix
}

func extractedPage(id, html string) ingest.Extracted {
	return extractAll(ingest.StaticSource{{ID: id, HTML: html}})[0]
}

// extractAll is the change set of a first pass over pages: every page.
func extractAll(pages ingest.StaticSource) []ingest.Extracted {
	return (&ingest.Ingester{Source: pages}).Changes()
}

func corpusPages(corpus *kb.Corpus) ingest.StaticSource {
	var pages ingest.StaticSource
	for _, d := range corpus.Docs {
		pages = append(pages, ingest.Page{ID: d.ID, HTML: d.HTML})
	}
	return pages
}

const page = `<html><head><title>Blocco carta di credito</title>
<meta name="domain" content="prodotti"><meta name="section" content="carte"><meta name="topic" content="t1">
</head><body><h1>Blocco carta</h1>
<p>Per bloccare la carta di credito è necessario chiamare il numero verde.</p>
<p>Il servizio è attivo tutti i giorni della settimana.</p>
</body></html>`

func TestIndexBasic(t *testing.T) {
	in, ix := testSetup(Config{EnrichSummary: true})
	n, err := in.Index(context.Background(), []ingest.Extracted{extractedPage("kb00001", page)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || ix.Len() == 0 {
		t.Fatalf("applied = %d, index len = %d", n, ix.Len())
	}
	doc, ok := ix.DocByID("kb00001#0")
	if !ok {
		t.Fatal("chunk not in index")
	}
	if doc.ParentID != "kb00001" {
		t.Fatalf("parent = %q", doc.ParentID)
	}
	if doc.Fields["title"] != "Blocco carta di credito" {
		t.Fatalf("title = %q", doc.Fields["title"])
	}
	if doc.Fields["domain"] != "prodotti" || doc.Fields["topic"] != "t1" {
		t.Fatalf("meta fields = %v", doc.Fields)
	}
	if doc.Fields["summary"] == "" {
		t.Fatal("summary enrichment missing")
	}
	if len(doc.Vectors["titleVector"]) == 0 || len(doc.Vectors["contentVector"]) == 0 {
		t.Fatal("vectors missing")
	}
}

func TestKeywordEnrichmentFields(t *testing.T) {
	in, ix := testSetup(Config{KeywordsFromTitle: true, KeywordsFromTitleContent: true})
	if _, err := in.Index(context.Background(), []ingest.Extracted{extractedPage("kb1", page)}); err != nil {
		t.Fatal(err)
	}
	doc, _ := ix.DocByID("kb1#0")
	if doc.Fields["kwTitle"] == "" || doc.Fields["kwTitleContent"] == "" {
		t.Fatalf("keyword fields = %v", doc.Fields)
	}
	if !strings.Contains(doc.Fields["kwTitle"], "cart") {
		t.Fatalf("kwTitle = %q", doc.Fields["kwTitle"])
	}
}

func TestDeletedDocumentAcknowledged(t *testing.T) {
	in, ix := testSetup(Config{})
	n, err := in.Index(context.Background(), []ingest.Extracted{{ID: "gone", Deleted: true}})
	if err != nil || n != 1 || ix.Len() != 0 {
		t.Fatalf("deletion handling: n=%d err=%v len=%d", n, err, ix.Len())
	}
}

func TestChunkIDRoundTrip(t *testing.T) {
	if got := chunkID("kb00042", 3); got != "kb00042#3" {
		t.Fatalf("chunkID = %q", got)
	}
}

// TestIndexConsumesChangeSet: a whole change set is applied in one call, and
// a cancelled context stops the call before it writes.
func TestIndexConsumesChangeSet(t *testing.T) {
	in, ix := testSetup(Config{})
	docs := []ingest.Extracted{extractedPage("kb1", page), extractedPage("kb2", page)}
	applied, err := in.Index(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || !ix.HasParent("kb1") || !ix.HasParent("kb2") {
		t.Fatalf("applied = %d, index len = %d", applied, ix.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := ix.Len()
	applied, err = in.Index(ctx, []ingest.Extracted{extractedPage("kb3", page), {ID: "kb1", Deleted: true}})
	if !errors.Is(err, context.Canceled) || applied != 0 || ix.Len() != before || !ix.HasParent("kb1") {
		t.Fatalf("cancelled call: applied=%d err=%v len %d -> %d", applied, err, before, ix.Len())
	}
}

func TestEndToEndCorpusIndexing(t *testing.T) {
	// Full pipeline over a small generated corpus: kb -> ingest -> indexer
	// -> index.
	corpus := kb.Generate(kb.GenConfig{Docs: 50, Seed: 3})
	ix := index.New(index.Config{Schema: Schema()})
	emb := embedding.NewSynth(64, corpus.Lexicon())
	in := New(ix, emb, llm.NewSim(llm.DefaultBehavior()), Config{EnrichSummary: true})
	applied, err := in.Index(context.Background(), extractAll(corpusPages(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	if applied != 50 || ix.Len() < 50 {
		t.Fatalf("applied %d docs, indexed %d chunks from 50 docs", applied, ix.Len())
	}
	// Every corpus doc must have at least chunk #0 indexed with its title.
	for _, d := range corpus.Docs {
		chunk, ok := ix.DocByID(d.ID + "#0")
		if !ok {
			t.Fatalf("doc %s has no chunk 0", d.ID)
		}
		if chunk.Fields["title"] != d.Title {
			t.Fatalf("doc %s title mismatch: %q vs %q", d.ID, chunk.Fields["title"], d.Title)
		}
		if chunk.Fields["domain"] != d.Domain {
			t.Fatalf("doc %s domain mismatch", d.ID)
		}
	}
}

// TestLiveUpdateFlow exercises the full §3 dataflow for edits: the poller
// detects a modified page, the indexer replaces its chunks, a later
// deletion tombstones them.
func TestLiveUpdateFlow(t *testing.T) {
	in, ix := testSetup(Config{})
	ctx := context.Background()

	// Initial version.
	v1 := extractedPage("kb9", page)
	if _, err := in.Index(ctx, []ingest.Extracted{v1}); err != nil {
		t.Fatal(err)
	}
	before := ix.LiveLen()

	// Modified version: different content must replace the old chunks.
	const pageV2 = `<html><head><title>Blocco carta di credito</title>
<meta name="domain" content="prodotti"></head><body>
<p>La nuova procedura prevede il blocco immediato tramite app mobile certificata.</p>
</body></html>`
	v2 := extractedPage("kb9", pageV2)
	if _, err := in.Index(ctx, []ingest.Extracted{v2}); err != nil {
		t.Fatal(err)
	}
	hits := ix.SearchText("app mobile certificata", 5, index.TextOptions{})
	if len(hits) == 0 {
		t.Fatal("updated content not searchable")
	}
	stale := ix.SearchText("numero verde", 5, index.TextOptions{})
	for _, h := range stale {
		if strings.HasPrefix(h.ID, "kb9#") { // a chunk id names its page
			t.Fatalf("stale content still searchable: %s", h.ID)
		}
	}
	if ix.LiveLen() > before {
		t.Fatalf("live chunks grew on update: %d -> %d", before, ix.LiveLen())
	}

	// Deletion.
	if _, err := in.Index(ctx, []ingest.Extracted{{ID: "kb9", Deleted: true}}); err != nil {
		t.Fatal(err)
	}
	if ix.HasParent("kb9") {
		t.Fatal("deleted page still live")
	}
}

// TestIndexBatchEquivalence: one call with every document (parallel
// prepare, bulk adds) must leave the store exactly as one call per document
// does, down to the insertion order and the segment layout, which the
// benchmark's pinned ranking digests rest on. The change set carries an
// edit and a deletion so both feed paths run.
func TestIndexBatchEquivalence(t *testing.T) {
	corpus := kb.Generate(kb.GenConfig{Docs: 40, Seed: 9})
	pages := corpusPages(corpus)
	extracted := extractAll(pages)
	extracted = append(extracted,
		extractedPage(pages[3].ID, pages[7].HTML),
		ingest.Extracted{ID: pages[5].ID, Deleted: true})

	newStore := func() *index.Segmented {
		return index.NewSegmented(index.Config{Schema: Schema()},
			index.SegmentConfig{MemtableMaxDocs: 16, CompactionFanIn: -1})
	}
	seqIdx, batchIdx := newStore(), newStore()
	emb := embedding.NewSynth(64, corpus.Lexicon())
	client := llm.NewSim(llm.DefaultBehavior())
	seq := New(seqIdx, emb, client, Config{EnrichSummary: true})
	bat := New(batchIdx, emb, client, Config{EnrichSummary: true})

	ctx := context.Background()
	for i := range extracted {
		if n, err := seq.Index(ctx, extracted[i:i+1]); err != nil || n != 1 {
			t.Fatalf("doc %d: applied %d, %v", i, n, err)
		}
	}
	if n, err := bat.Index(ctx, extracted); err != nil || n != len(extracted) {
		t.Fatalf("batch: applied %d of %d, %v", n, len(extracted), err)
	}

	if a, b := seqIdx.LiveDocs(), batchIdx.LiveDocs(); !reflect.DeepEqual(a, b) {
		t.Fatalf("live documents differ: %d vs %d", len(a), len(b))
	}
	sa, sb := seqIdx.SegmentStats(), batchIdx.SegmentStats()
	if sa != sb {
		t.Fatalf("segment stats differ:\n%+v\n%+v", sa, sb)
	}
	if sa.Seals < 2 || sa.Tombstones == 0 {
		t.Fatalf("store did not seal or tombstone, the test checks nothing: %+v", sa)
	}
	// Search results must match.
	q := corpus.Docs[0].Title
	ha := seqIdx.SearchText(q, 5, index.TextOptions{})
	hb := batchIdx.SearchText(q, 5, index.TextOptions{})
	if !reflect.DeepEqual(ha, hb) {
		t.Fatalf("results differ:\n%+v\n%+v", ha, hb)
	}
}

// TestIndexBatchHandlesDeletes: deletion messages in a batch tombstone.
func TestIndexBatchHandlesDeletes(t *testing.T) {
	in, ix := testSetup(Config{})
	ctx := context.Background()
	if _, err := in.Index(ctx, []ingest.Extracted{extractedPage("kbx", page)}); err != nil {
		t.Fatal(err)
	}
	if !ix.HasParent("kbx") {
		t.Fatal("batch add failed")
	}
	if _, err := in.Index(ctx, []ingest.Extracted{{ID: "kbx", Deleted: true}}); err != nil {
		t.Fatal(err)
	}
	if ix.HasParent("kbx") {
		t.Fatal("batch delete failed")
	}
}
