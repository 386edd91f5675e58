package shard

import (
	"fmt"
	"io"
	"sort"

	"uniask/internal/index"
)

// Sharded snapshot container (framing in index.WriteContainer): a manifest,
// then one segmented snapshot per shard:
//
//	"uniask-sharded-snapshot/"            (index.ShardedSnapshotMagic)
//	u64 big-endian manifest length, manifest gob
//	per shard: u64 big-endian length, segmented snapshot (Segmented.Save)
//
// Load also accepts the segmented container a single-store engine saves:
// its live documents are redistributed across the configured shards (the
// 1 → N migration). A container whose manifest shard count differs from
// the configured one migrates the same way.
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
	if err := index.WriteContainer(w, index.ShardedSnapshotMagic, m, len(s.shards), func(i int, w io.Writer) error {
		return s.shards[i].Save(w)
	}); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// Load restores a facade with cfg.Shards shards:
//
//   - A sharded container with the same shard count loads each shard
//     directly (no re-analysis, HNSW graphs restored from their streams).
//   - A sharded container with a different shard count, or the segmented
//     container a single-store engine saves, is migrated: every live
//     document is re-added through the configured facade in its original
//     arrival order, which re-routes it to its new shard and rebuilds the
//     per-shard structures (its vectors copied verbatim, see migrate). Migration costs a re-index but keeps rankings
//     deterministic, because per-shard insertion order is preserved.
//
// Anything older than the previous release wrote is refused with
// index.ErrUnsupportedSnapshot.
func Load(r io.Reader, cfg Config) (*Sharded, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	c := index.OpenContainer(r)
	if !c.Holds(index.ShardedSnapshotMagic) {
		// Single-store snapshot: decode it as one store, then redistribute
		// its live documents across the configured shards.
		ix, err := index.ReadSegmented(c, cfg.Index, cfg.Segment)
		if err != nil {
			return nil, fmt.Errorf("shard: load single-store snapshot: %w", err)
		}
		s, err := migrate(cfg, ix.LiveDocs())
		if err != nil {
			return nil, fmt.Errorf("shard: migrate single-store snapshot: %w", err)
		}
		return s, nil
	}
	m := manifest{Seq: make(map[string]uint64)}
	header := func() (int, int) { return m.Version, m.Shards }
	if err := c.ReadManifest(index.ShardedSnapshotMagic, manifestVersion, &m, header); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	backends := make([]Backend, m.Shards)
	for i := range backends {
		sec, err := c.Section()
		if err != nil {
			return nil, fmt.Errorf("shard: %s: read shard %d: %w", c.Name(), i, err)
		}
		ix, err := index.ReadSegmented(sec, cfg.Index, cfg.Segment)
		if err != nil {
			return nil, fmt.Errorf("shard: restore shard %d: %w", i, err)
		}
		backends[i] = NewLocal(ix)
	}
	loaded := NewWithBackends(Config{Shards: m.Shards, Index: cfg.Index, Segment: cfg.Segment, Workers: cfg.Workers}, backends)
	loaded.nextSeq, loaded.seq = m.NextSeq, m.Seq
	if m.Shards == cfg.Shards {
		loaded.deriveDims()
		return loaded, nil
	}
	// Shard-count change: re-route every live document through a fresh
	// facade, in global arrival order so insertion-order-sensitive
	// structures (HNSW, vector tiebreaks) stay deterministic.
	docs := loaded.LiveDocs()
	seqOf := loaded.seq
	sortDocsBySeq(docs, seqOf)
	s, err := migrate(cfg, docs)
	if err != nil {
		return nil, fmt.Errorf("shard: migrate from %d to %d shards: %w", m.Shards, cfg.Shards, err)
	}
	return s, nil
}

// migrate re-adds docs, read back from another store, through a fresh
// facade: routed, sequenced and checked as AddBulk does, with their vectors
// — the old graphs' unit-length arena views — copied into the new graphs
// verbatim (index.Segmented.AddStored), so each shard's graphs are the ones
// its first inserts would have built.
func migrate(cfg Config, docs []index.Document) (*Sharded, error) {
	s := New(cfg)
	err := s.addBulk(docs, func(b Backend, part []index.Document) (int, error) {
		return b.(*Local).AddStored(part) // New builds local shards only
	})
	return s, err
}

// sortDocsBySeq orders docs by their recorded global arrival sequence,
// falling back to id order for documents missing one, so even a manifest
// that lost entries migrates deterministically.
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
