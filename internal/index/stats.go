package index

// Corpus statistics. Okapi BM25 scores depend on three corpus-level
// quantities — the document count N, the per-field average length, and the
// per-term document frequency — and all three change meaning under
// sharding: a shard that computed them locally would rank its own documents
// against a different idf curve than its neighbors, and the merged top-k
// would diverge from the monolithic ranking. CollectStats exports one
// shard's contribution, CorpusStats.Merge folds contributions together, and
// SearchTextGlobal consumes the aggregate, so the sharded facade scores
// every document with exactly the statistics a monolithic index would use.

// FieldStats is one field's contribution to the corpus statistics.
type FieldStats struct {
	// TotalLen is the summed analyzed token count of the field over all
	// documents (the numerator of the BM25 average length).
	TotalLen int
	// DF maps an analyzed query term to the number of documents whose field
	// contains it. Terms absent from the shard are omitted.
	DF map[string]int
}

// CorpusStats aggregates the corpus-level BM25 inputs across shards.
type CorpusStats struct {
	// Docs counts documents including tombstoned ones, matching the N a
	// monolithic index uses (tombstones stay in its posting lists too).
	Docs int
	// Fields holds per-searchable-field statistics.
	Fields map[string]FieldStats
}

// Merge folds o into s. Document counts, total lengths and document
// frequencies are all additive because every document lives on exactly one
// shard.
func (s *CorpusStats) Merge(o CorpusStats) {
	s.Docs += o.Docs
	if s.Fields == nil {
		s.Fields = make(map[string]FieldStats, len(o.Fields))
	}
	for name, of := range o.Fields {
		f := s.Fields[name]
		f.TotalLen += of.TotalLen
		if f.DF == nil {
			f.DF = make(map[string]int, len(of.DF))
		}
		for t, df := range of.DF {
			f.DF[t] += df
		}
		s.Fields[name] = f
	}
}

// CollectStats gathers this index's BM25 statistics for the given
// searchable fields (all of them when empty) restricted to the given
// analyzed terms. The result is self-contained and safe to Merge with other
// shards' contributions after the lock is released; it reflects the index
// state at one instant, consistent with a search run under the same epoch.
func (ix *Index) CollectStats(fields, terms []string) CorpusStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(fields) == 0 {
		fields = ix.searchNames
	}
	cs := CorpusStats{Docs: len(ix.docs), Fields: make(map[string]FieldStats, len(fields))}
	for _, fname := range fields {
		fi, ok := ix.fields[fname]
		if !ok {
			continue
		}
		fs := FieldStats{TotalLen: fi.totalLen, DF: make(map[string]int, len(terms))}
		for _, t := range terms {
			if df := len(fi.postings[t]); df > 0 {
				fs.DF[t] = df
			}
		}
		cs.Fields[fname] = fs
	}
	return cs
}

// Stats is a point-in-time gauge snapshot of one index, surfaced per shard
// on the monitoring dashboard.
type Stats struct {
	// Docs counts chunks ever inserted, including tombstoned ones.
	Docs int
	// Live counts searchable (non-tombstoned) chunks.
	Live int
	// Tombstones counts deleted-but-unreclaimed chunks.
	Tombstones int
	// Terms counts distinct (field, term) posting lists.
	Terms int
	// Postings counts posting entries across all fields — the inverted
	// index's dominant memory term.
	Postings int
}

// Stats computes the gauge snapshot. It walks every posting list, so it is
// meant for dashboard polling, not the query hot path.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Docs: len(ix.docs), Live: len(ix.byID), Tombstones: len(ix.deleted)}
	for _, fi := range ix.fields {
		st.Terms += len(fi.postings)
		for _, pl := range fi.postings {
			st.Postings += len(pl)
		}
	}
	return st
}

// LiveDocs returns the live (non-tombstoned) documents in insertion order.
// Their fields and vectors share storage with the index — callers must not
// mutate them. The sharded facade uses it to migrate a snapshot across shard
// layouts by re-adding every live document.
func (ix *Index) LiveDocs() []Document {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]Document, 0, len(ix.byID))
	for ord, doc := range ix.docs {
		if ix.isDeleted(int32(ord)) {
			continue
		}
		if _, live := ix.byID[doc.ID]; !live {
			continue
		}
		out = append(out, ix.doc(int32(ord)))
	}
	return out
}
