package index

import (
	"fmt"
	"io"
)

// Segmented snapshot container (framing in container.go): a manifest,
// then one single-index snapshot per sealed segment (oldest first) and a
// final one for the memtable:
//
//	"uniask-segmented-snapshot/"          (SegmentedSnapshotMagic)
//	u64 big-endian length, manifest gob
//	per sealed segment: u64 big-endian length, index snapshot (Index.Save)
//	memtable: u64 big-endian length, index snapshot (Index.Save)

// segManifest is the gob-encoded container header.
type segManifest struct {
	// Version of the container layout.
	Version int
	// Segments is the number of sealed-segment sections that follow; one
	// more section (the memtable) always trails them.
	Segments int
	// NextSeq and Seq restore the arrival sequence so vector-tie ordering
	// survives a save/load cycle.
	NextSeq uint64
	Seq     map[string]uint64
	// StatsKey carries the published-snapshot key across restarts so its
	// monotonicity holds process-wide.
	StatsKey uint64
}

// segManifestVersion is the current container layout version.
const segManifestVersion = 1

// Save serializes the store as a segmented snapshot container. The store
// read lock is held for the duration, which also excludes a concurrent
// compaction splice, so the section list is internally consistent; as with
// the monolithic snapshot, save between ingestion cycles for a
// corpus-consistent image.
func (s *Segmented) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.seqMu.RLock()
	m := segManifest{
		Version:  segManifestVersion,
		Segments: len(s.sealed),
		NextSeq:  s.nextSeq,
		Seq:      make(map[string]uint64, len(s.seq)),
		StatsKey: s.statsKey.Load(),
	}
	for id, sq := range s.seq {
		m.Seq[id] = sq
	}
	s.seqMu.RUnlock()
	parts := append(append([]*Index{}, s.sealed...), s.mem)
	if err := WriteContainer(w, SegmentedSnapshotMagic, m, len(parts), func(i int, w io.Writer) error {
		return parts[i].Save(w)
	}); err != nil {
		return fmt.Errorf("index: segmented container: %w", err)
	}
	return nil
}

// ReadSegmented restores a segmented store from the container Save writes:
// every sealed segment and the memtable come back directly (no
// re-analysis, HNSW graphs restored from their streams). A sharded
// container is refused with ErrShardedSnapshot — shard.Load owns that
// format — and anything older than the previous release wrote (a stream
// without the container magic, such as a single-file Index.Save snapshot)
// with ErrUnsupportedSnapshot.
func ReadSegmented(r io.Reader, cfg Config, scfg SegmentConfig) (*Segmented, error) {
	c := OpenContainer(r)
	switch {
	case c.Holds(ShardedSnapshotMagic):
		return nil, fmt.Errorf("index: %s: detected a sharded snapshot container: %w", c.Name(), ErrShardedSnapshot)
	case !c.Holds(SegmentedSnapshotMagic):
		return nil, unsupported(c.Name(), "no segmented container magic (a single-file snapshot, or not a snapshot)")
	}
	m := segManifest{Seq: make(map[string]uint64)}
	header := func() (int, int) { return m.Version, m.Segments + 1 }
	if err := c.ReadManifest(SegmentedSnapshotMagic, segManifestVersion, &m, header); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	var parts []*Index
	for i := 0; i <= m.Segments; i++ {
		sec, err := c.Section()
		if err != nil {
			return nil, fmt.Errorf("index: %s: read section %d: %w", c.Name(), i, err)
		}
		part, err := read(sec, cfg)
		if err != nil {
			return nil, fmt.Errorf("index: restore section %d: %w", i, err)
		}
		parts = append(parts, part)
	}
	s := NewSegmented(cfg, scfg)
	s.sealed, s.mem = parts[:m.Segments:m.Segments], parts[m.Segments]
	// Adopt the restored schema/BM25 params (every section carries the
	// same ones) so memtables sealed after the load are built identically.
	s.cfg = s.mem.cfg
	s.seq = m.Seq
	s.nextSeq = m.NextSeq
	s.statsKey.Store(m.StatsKey)
	return s, nil
}
