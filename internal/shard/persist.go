package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"uniask/internal/index"
)

// Sharded snapshot container. The layout is a magic prefix, a gob-encoded
// manifest, then one single-index snapshot per shard, each section
// length-prefixed so sections can be framed without trusting the gob
// decoder to stop at a boundary:
//
//	"uniask-sharded-snapshot/"            (index.ShardedSnapshotMagic)
//	u64 big-endian manifest length, manifest gob
//	per shard: u64 big-endian length, segmented snapshot (Segmented.Save)
//
// The magic is what lets index.Read reject a sharded stream with a
// descriptive error, and what lets Load accept a legacy single-file
// snapshot: a stream that does not start with the magic is decoded as a
// monolithic snapshot and its live documents are redistributed across the
// configured shards (the migration path). A container whose manifest shard
// count differs from the configured one migrates the same way. Per-shard
// sections are themselves format-sniffed on load, so PR-4 era containers
// whose sections are plain single-index snapshots still restore (each one
// is adopted as a single sealed segment).
type manifest struct {
	// Version of the container layout.
	Version int
	// Shards is the number of per-shard sections that follow.
	Shards int
	// NextSeq and Seq restore the global arrival sequence so vector-tie
	// ordering survives a save/load cycle.
	NextSeq uint64
	Seq     map[string]uint64
}

// manifestVersion is the current container layout version.
const manifestVersion = 1

// Save serializes the facade as a sharded snapshot container. Each shard is
// snapshotted under its own read lock in shard order; for a cross-shard
// consistent image, save while no writer is running (the ingestion poller
// between cycles), matching how the monolithic snapshot is operated.
func (s *Sharded) Save(w io.Writer) error {
	if _, err := io.WriteString(w, index.ShardedSnapshotMagic); err != nil {
		return fmt.Errorf("shard: write magic: %w", err)
	}
	s.seqMu.RLock()
	m := manifest{
		Version: manifestVersion,
		Shards:  len(s.shards),
		NextSeq: s.nextSeq,
		Seq:     make(map[string]uint64, len(s.seq)),
	}
	for id, sq := range s.seq {
		m.Seq[id] = sq
	}
	s.seqMu.RUnlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	if err := writeSection(w, buf.Bytes()); err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	for i, sh := range s.shards {
		buf.Reset()
		if err := sh.Save(&buf); err != nil {
			return fmt.Errorf("shard: snapshot shard %d: %w", i, err)
		}
		if err := writeSection(w, buf.Bytes()); err != nil {
			return fmt.Errorf("shard: write shard %d: %w", i, err)
		}
	}
	return nil
}

// writeSection writes one length-prefixed container section.
func writeSection(w io.Writer, b []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readSection frames one length-prefixed container section.
func readSection(r io.Reader) (io.Reader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return io.LimitReader(r, int64(binary.BigEndian.Uint64(hdr[:]))), nil
}

// Load restores a facade with cfg.Shards shards from any snapshot format:
//
//   - A sharded container with the same shard count loads each shard
//     directly (no re-analysis, HNSW graphs restored from their streams).
//   - A sharded container with a different shard count, or a single-store
//     snapshot (the segmented container a monolithic engine saves, or a
//     legacy single-file snapshot written by index.Save), is migrated: every
//     live document is re-added through the configured facade in its
//     original arrival order, which re-routes it to its new shard and
//     rebuilds the per-shard structures. Migration costs a re-index but
//     keeps rankings deterministic, because per-shard insertion order is
//     preserved.
func Load(r io.Reader, cfg Config) (*Sharded, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	br := bufio.NewReader(r)
	magic := index.ShardedSnapshotMagic
	peek, err := br.Peek(len(magic))
	if err != nil || string(peek) != magic {
		// Single-store snapshot (segmented container or legacy single
		// file): decode it as one store, then redistribute its live
		// documents across the configured shards.
		ix, err := index.ReadSegmented(br, cfg.Index, cfg.Segment)
		if err != nil {
			return nil, fmt.Errorf("shard: load single-store snapshot: %w", err)
		}
		s := New(cfg)
		if err := s.AddBulk(ix.LiveDocs()); err != nil {
			return nil, fmt.Errorf("shard: migrate single-store snapshot: %w", err)
		}
		return s, nil
	}
	if _, err := io.CopyN(io.Discard, br, int64(len(magic))); err != nil {
		return nil, fmt.Errorf("shard: read magic: %w", err)
	}
	sec, err := readSection(br)
	if err != nil {
		return nil, fmt.Errorf("shard: read manifest: %w", err)
	}
	var m manifest
	if err := gob.NewDecoder(sec).Decode(&m); err != nil {
		return nil, fmt.Errorf("shard: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: unsupported container version %d (want %d)", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: corrupt manifest: %d shards", m.Shards)
	}

	backends := make([]Backend, m.Shards)
	for i := range backends {
		sec, err := readSection(br)
		if err != nil {
			return nil, fmt.Errorf("shard: read shard %d: %w", i, err)
		}
		// Each per-shard section is sniffed by format: new containers hold
		// one segmented snapshot per shard, PR-4 era containers hold plain
		// single-index snapshots, which ReadSegmented adopts as one sealed
		// segment apiece (no re-analysis).
		ix, err := index.ReadSegmented(sec, cfg.Index, cfg.Segment)
		if err != nil {
			return nil, fmt.Errorf("shard: restore shard %d: %w", i, err)
		}
		backends[i] = NewLocal(ix)
	}
	loaded := NewWithBackends(Config{Shards: m.Shards, Index: cfg.Index, Segment: cfg.Segment, Workers: cfg.Workers}, backends)
	loaded.nextSeq = m.NextSeq
	if m.Seq != nil {
		loaded.seq = m.Seq
	}
	if m.Shards == cfg.Shards {
		return loaded, nil
	}
	// Shard-count change: re-route every live document through a fresh
	// facade, in global arrival order so insertion-order-sensitive
	// structures (HNSW, vector tiebreaks) stay deterministic.
	docs := loaded.LiveDocs()
	seqOf := loaded.seq
	sortDocsBySeq(docs, seqOf)
	s := New(cfg)
	if err := s.AddBulk(docs); err != nil {
		return nil, fmt.Errorf("shard: migrate from %d to %d shards: %w", m.Shards, cfg.Shards, err)
	}
	return s, nil
}

// sortDocsBySeq orders docs by their recorded global arrival sequence,
// falling back to id order for documents missing one (pre-sequence
// snapshots).
func sortDocsBySeq(docs []index.Document, seq map[string]uint64) {
	sort.SliceStable(docs, func(i, j int) bool {
		si, oki := seq[docs[i].ID]
		sj, okj := seq[docs[j].ID]
		if oki && okj && si != sj {
			return si < sj
		}
		if oki != okj {
			return oki
		}
		return docs[i].ID < docs[j].ID
	})
}
