package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"uniask/internal/vector"
)

// Persistence: Save serializes the whole index — documents, inverted
// postings, filters and the vector indexes — so read restores it without
// re-analyzing documents or rebuilding the ANN structure (the expensive
// part of index construction). The format is a single gob stream, carried
// as a section of the containers in container.go. Embeddings are written
// once, in the vector indexes' arenas; documents carry none.

// postingSnapshot mirrors the unexported posting type.
type postingSnapshot struct {
	Doc int32
	TF  int32
}

// fieldSnapshot mirrors fieldIndex.
type fieldSnapshot struct {
	Postings map[string][]postingSnapshot
	DocLens  []int
	TotalLen int
}

// indexSnapshot is the gob-serializable image of the index.
type indexSnapshot struct {
	Schema Schema
	BM25   BM25Params
	// Docs are the stored documents without their vectors. The previous
	// release wrote each document's raw vectors here too; read ignores
	// them wherever a vector field has a serialized index.
	Docs    []Document
	Fields  map[string]fieldSnapshot
	Filters map[string]map[string][]int32
	// Vectors holds one serialized HNSW stream per HNSW vector field, and
	// Exact one vector.Exhaustive stream per exact one. A field in neither
	// (an exact field the previous release wrote) is rebuilt from the raw
	// document vectors.
	Vectors map[string][]byte
	Exact   map[string][]byte
	// Deleted lists tombstoned ordinals.
	Deleted []int32
}

// Save serializes the index as one section of a snapshot container; on its
// own the stream is no loadable snapshot (ReadSegmented refuses it). It
// holds the read lock for the duration, so a snapshot taken under live
// traffic is internally consistent.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := indexSnapshot{
		Schema:  ix.cfg.Schema,
		BM25:    ix.cfg.BM25,
		Docs:    ix.docs,
		Fields:  make(map[string]fieldSnapshot, len(ix.fields)),
		Filters: ix.filters,
		Vectors: make(map[string][]byte, len(ix.vecs)),
		Exact:   make(map[string][]byte),
	}
	for ord := range ix.deleted {
		snap.Deleted = append(snap.Deleted, ord)
	}
	for name, fi := range ix.fields {
		fs := fieldSnapshot{
			Postings: make(map[string][]postingSnapshot, len(fi.postings)),
			DocLens:  fi.docLens,
			TotalLen: fi.totalLen,
		}
		for term, pl := range fi.postings {
			out := make([]postingSnapshot, len(pl))
			for i, p := range pl {
				out[i] = postingSnapshot{Doc: p.doc, TF: p.tf}
			}
			fs.Postings[term] = out
		}
		snap.Fields[name] = fs
	}
	for name, vx := range ix.vecs {
		var buf bytes.Buffer
		var err error
		switch vx := vx.(type) {
		case *vector.HNSW:
			err = vx.Save(&buf)
			snap.Vectors[name] = buf.Bytes()
		case *vector.Exhaustive:
			err = vx.Save(&buf)
			snap.Exact[name] = buf.Bytes()
		default:
			err = fmt.Errorf("%T cannot be saved", vx)
		}
		if err != nil {
			return fmt.Errorf("index: serialize vector field %q: %w", name, err)
		}
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return nil
}

// read restores one index from a container section written by Save. The
// provided Config supplies the non-serializable part (the vector-index
// constructor); its Schema and BM25 params are overridden by the
// snapshot's.
func read(r io.Reader, cfg Config) (*Index, error) {
	// Non-nil maps, so gob cannot size them by a corrupt element count
	// (see Container.ReadManifest).
	snap := indexSnapshot{
		Schema:  make(Schema),
		Fields:  make(map[string]fieldSnapshot),
		Filters: make(map[string]map[string][]int32),
		Vectors: make(map[string][]byte),
		Exact:   make(map[string][]byte),
	}
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	cfg.Schema = snap.Schema
	cfg.BM25 = snap.BM25
	ix := New(cfg)
	ix.docs = snap.Docs
	for _, ord := range snap.Deleted {
		if ix.deleted == nil {
			ix.deleted = make(map[int32]bool)
		}
		ix.deleted[ord] = true
	}
	for i, d := range snap.Docs {
		if ix.isDeleted(int32(i)) {
			continue
		}
		ix.byID[d.ID] = int32(i)
		ix.byParent[d.ParentID] = append(ix.byParent[d.ParentID], int32(i))
	}
	for name, fs := range snap.Fields {
		fi := &fieldIndex{
			postings: make(map[string][]posting, len(fs.Postings)),
			docLens:  fs.DocLens,
			totalLen: fs.TotalLen,
		}
		for term, pl := range fs.Postings {
			out := make([]posting, len(pl))
			for i, p := range pl {
				out[i] = posting{doc: p.Doc, tf: p.TF}
			}
			fi.postings[term] = out
		}
		ix.fields[name] = fi
	}
	ix.filters = snap.Filters
	for name := range ix.vecs {
		vx, err := readVectors(snap, name)
		if errors.Is(err, errors.ErrUnsupported) {
			return nil, unsupported(streamName(r), fmt.Sprintf("vector field %q: %v", name, err))
		}
		if err != nil {
			return nil, fmt.Errorf("index: vector field %q: %w", name, err)
		}
		if vx != nil {
			ix.vecs[name] = vx
			continue
		}
		// An exact field the previous release wrote: rebuild it from the
		// raw document vectors, normalized as their first insert did.
		for i, d := range ix.docs {
			if v, ok := d.Vectors[name]; ok {
				if err := ix.vecs[name].Add(i, v); err != nil {
					return nil, fmt.Errorf("index: rebuild vector field %q: %w", name, err)
				}
			}
		}
	}
	// Documents read their vectors from the arenas from here on (tombstoned
	// chunks are in the graphs too); raw vectors a previous-release
	// snapshot carried are dropped. A field's dimension is that of the
	// first vector its index holds.
	for i := range ix.docs {
		ix.docs[i].Vectors = nil
	}
	for _, name := range ix.vecNames {
		for ord := range ix.docs {
			if v := ix.vecs[name].Vec(ord); v != nil {
				ix.dims[name] = len(v)
				break
			}
		}
	}
	return ix, nil
}

// readVectors decodes the serialized index of vector field name, or returns
// nil when the snapshot holds none for it.
func readVectors(snap indexSnapshot, name string) (vector.Index, error) {
	if data, ok := snap.Vectors[name]; ok {
		return vector.ReadHNSW(bytes.NewReader(data))
	}
	if data, ok := snap.Exact[name]; ok {
		return vector.ReadExhaustive(bytes.NewReader(data))
	}
	return nil, nil
}
