package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Segmented snapshot container. The layout mirrors the sharded container:
// a magic prefix, a gob-encoded manifest, then one single-index snapshot
// per sealed segment (oldest first) and a final one for the memtable, each
// section length-prefixed so the frame boundaries never depend on the gob
// decoder stopping in the right place:
//
//	"uniask-segmented-snapshot/"          (SegmentedSnapshotMagic)
//	u64 big-endian manifest length, manifest gob
//	per sealed segment: u64 big-endian length, index snapshot (Save format)
//	memtable: u64 big-endian length, index snapshot (Save format)
//
// The magic lets Read reject a segmented stream with a pointed error, and
// lets ReadSegmented accept a legacy single-file snapshot by adopting the
// whole monolithic index as one sealed segment — a migration that costs no
// re-analysis and changes no statistics (tombstones ride along).

// SegmentedSnapshotMagic is the byte prefix of the segmented snapshot
// container written by Segmented.Save.
const SegmentedSnapshotMagic = "uniask-segmented-snapshot/"

// ErrSegmentedSnapshot is returned by Read when given a segmented snapshot
// container, which ReadSegmented (or any engine, all of which hold
// segmented stores) restores.
var ErrSegmentedSnapshot = errors.New(
	"index: stream is a segmented snapshot container, not a single-index snapshot; " +
		"load it with index.ReadSegmented")

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
	// monotonicity holds process-wide. (Containers written before the
	// mutation epoch was removed also carry an Epoch field; gob skips it.)
	StatsKey uint64
}

// segManifestVersion is the current container layout version.
const segManifestVersion = 1

// maxSegmentSections bounds how many sections a manifest may declare —
// far above any real store, low enough that a corrupt count cannot drive
// unbounded allocation.
const maxSegmentSections = 1 << 20

// writeSegSection writes one length-prefixed container section.
func writeSegSection(w io.Writer, b []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readSegSection frames one length-prefixed container section.
func readSegSection(r io.Reader) (io.Reader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return io.LimitReader(r, int64(binary.BigEndian.Uint64(hdr[:]))), nil
}

// decodeSegManifest frames and decodes the manifest section, validating
// every field a later allocation or loop trusts. Corrupt or truncated input
// must come back as an error, never a panic — the fuzz target in
// segpersist_test.go holds it to that.
func decodeSegManifest(r io.Reader) (segManifest, error) {
	sec, err := readSegSection(r)
	if err != nil {
		return segManifest{}, fmt.Errorf("index: read segmented manifest: %w", err)
	}
	var m segManifest
	if err := gob.NewDecoder(sec).Decode(&m); err != nil {
		return segManifest{}, fmt.Errorf("index: decode segmented manifest: %w", err)
	}
	if m.Version != segManifestVersion {
		return segManifest{}, fmt.Errorf("index: unsupported segmented container version %d (want %d)", m.Version, segManifestVersion)
	}
	if m.Segments < 0 || m.Segments > maxSegmentSections {
		return segManifest{}, fmt.Errorf("index: corrupt segmented manifest: %d segments", m.Segments)
	}
	return m, nil
}

// Save serializes the store as a segmented snapshot container. The store
// read lock is held for the duration, which also excludes a concurrent
// compaction splice, so the section list is internally consistent; as with
// the monolithic snapshot, save between ingestion cycles for a
// corpus-consistent image.
func (s *Segmented) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := io.WriteString(w, SegmentedSnapshotMagic); err != nil {
		return fmt.Errorf("index: write segmented magic: %w", err)
	}
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("index: encode segmented manifest: %w", err)
	}
	if err := writeSegSection(w, buf.Bytes()); err != nil {
		return fmt.Errorf("index: write segmented manifest: %w", err)
	}
	for i, part := range append(append([]*Index{}, s.sealed...), s.mem) {
		buf.Reset()
		if err := part.Save(&buf); err != nil {
			return fmt.Errorf("index: snapshot segment %d: %w", i, err)
		}
		if err := writeSegSection(w, buf.Bytes()); err != nil {
			return fmt.Errorf("index: write segment %d: %w", i, err)
		}
	}
	return nil
}

// ReadSegmented restores a segmented store from either snapshot format:
//
//   - A segmented container restores every sealed segment and the memtable
//     directly (no re-analysis, HNSW graphs restored from their streams).
//   - A legacy single-file snapshot written by Index.Save is migrated by
//     adopting the whole index as one sealed segment: the document set,
//     tombstones and statistics are exactly what the monolithic index held,
//     so rankings are unchanged and the migration costs one decode.
//
// Sharded containers are refused with ErrShardedSnapshot — shard.Load owns
// that format.
func ReadSegmented(r io.Reader, cfg Config, scfg SegmentConfig) (*Segmented, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(ShardedSnapshotMagic)); err == nil && string(peek) == ShardedSnapshotMagic {
		return nil, wrongContainer(r, "sharded snapshot", ErrShardedSnapshot)
	}
	if peek, err := br.Peek(len(SegmentedSnapshotMagic)); err != nil || string(peek) != SegmentedSnapshotMagic {
		// Legacy single-file snapshot: adopt it as one sealed segment.
		ix, err := Read(br, cfg)
		if err != nil {
			return nil, fmt.Errorf("index: load legacy snapshot into segmented store: %w", err)
		}
		s := NewSegmented(cfg, scfg)
		// The snapshot's schema and BM25 params override the provided
		// config (mirroring Read); rebuild the memtable to match so every
		// future part is built against the restored schema.
		s.cfg = ix.cfg
		s.mem = New(s.cfg)
		s.adoptSegment(ix)
		return s, nil
	}
	if _, err := io.CopyN(io.Discard, br, int64(len(SegmentedSnapshotMagic))); err != nil {
		return nil, fmt.Errorf("index: read segmented magic: %w", err)
	}
	m, err := decodeSegManifest(br)
	if err != nil {
		return nil, err
	}
	s := NewSegmented(cfg, scfg)
	for i := 0; i < m.Segments; i++ {
		sec, err := readSegSection(br)
		if err != nil {
			return nil, fmt.Errorf("index: read segment %d: %w", i, err)
		}
		seg, err := Read(sec, cfg)
		if err != nil {
			return nil, fmt.Errorf("index: restore segment %d: %w", i, err)
		}
		s.sealed = append(s.sealed, seg)
	}
	sec, err := readSegSection(br)
	if err != nil {
		return nil, fmt.Errorf("index: read memtable section: %w", err)
	}
	mem, err := Read(sec, cfg)
	if err != nil {
		return nil, fmt.Errorf("index: restore memtable: %w", err)
	}
	s.mem = mem
	// Adopt the restored schema/BM25 params (every section carries the
	// same ones) so memtables sealed after the load are built identically.
	s.cfg = mem.cfg
	s.seq = m.Seq
	if s.seq == nil {
		s.seq = make(map[string]uint64)
	}
	s.nextSeq = m.NextSeq
	s.statsKey.Store(m.StatsKey)
	return s, nil
}

// adoptSegment installs ix as the newest sealed segment, stamping its live
// documents with arrival sequences in insertion order — the migration path
// for snapshots that predate the segmented container.
func (s *Segmented) adoptSegment(ix *Index) {
	if ix.Len() == 0 {
		return
	}
	s.mu.Lock()
	s.sealed = append(s.sealed, ix)
	s.mu.Unlock()
	for _, d := range ix.LiveDocs() {
		s.assignSeq(d.ID)
	}
}
