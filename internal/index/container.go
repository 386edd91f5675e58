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

// Snapshot containers. Both on-disk formats — the segmented container
// Segmented.Save writes and the sharded one the shard facade writes — are
// framed here, and only here:
//
//	magic prefix                          (SegmentedSnapshotMagic or ShardedSnapshotMagic)
//	u64 big-endian manifest length, manifest gob
//	per section: u64 big-endian length, section bytes
//
// Sections are length-prefixed, so no decoder reads past its own, and the
// section count a manifest declares is bounded before anything is
// allocated by it.
//
// A binary reads the containers the previous release wrote and nothing
// older (docs/OPERATIONS.md, "Compatibility"); an older input is refused
// with ErrUnsupportedSnapshot.

// SegmentedSnapshotMagic is the byte prefix of the segmented snapshot
// container written by Segmented.Save.
const SegmentedSnapshotMagic = "uniask-segmented-snapshot/"

// ShardedSnapshotMagic is the byte prefix of the multi-shard snapshot
// container written by the shard facade's Save. It lives here (not in the
// shard package) so ReadSegmented can recognize a sharded stream and refuse
// it with a pointed error instead of a cryptic decode failure.
const ShardedSnapshotMagic = "uniask-sharded-snapshot/"

// ErrShardedSnapshot is returned by ReadSegmented when given a sharded
// snapshot container, which only shard.Load (or an engine configured with
// ShardCount > 1) can restore.
var ErrShardedSnapshot = errors.New(
	"index: stream is a sharded snapshot container, not a single-store snapshot; " +
		"load it with shard.Load or an engine configured with ShardCount > 1")

// ErrUnsupportedSnapshot is returned for a snapshot this release does not
// read: one written by a release older than the previous one. Load it with
// each release in between, saving each time (docs/OPERATIONS.md,
// "Compatibility").
var ErrUnsupportedSnapshot = errors.New(
	"index: unsupported snapshot format: a release reads only what the previous release wrote; " +
		"step through the releases in between (docs/OPERATIONS.md, Compatibility)")

// unsupported refuses a snapshot too old to read, naming the source and
// what was found in it.
func unsupported(name, found string) error {
	return fmt.Errorf("index: %s: %s: %w", name, found, ErrUnsupportedSnapshot)
}

// maxSections bounds the sections a manifest may declare: far above any
// real store or cluster, low enough that a corrupt count cannot drive an
// unbounded allocation.
const maxSections = 1 << 20

// streamName names a snapshot source in errors: the file path when the
// reader carries one (*os.File does), "stream" otherwise.
func streamName(r io.Reader) string {
	if n, ok := r.(interface{ Name() string }); ok {
		if name := n.Name(); name != "" {
			return name
		}
	}
	return "stream"
}

// WriteContainer writes a snapshot container: magic, the gob of manifest,
// then n sections, section i holding what save(i, w) writes.
func WriteContainer(w io.Writer, magic string, manifest any, n int, save func(i int, w io.Writer) error) error {
	frame := func(b []byte) error {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(len(b)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(b)
		return err
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("write magic: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(manifest); err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	if err := frame(buf.Bytes()); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := save(i, &buf); err != nil {
			return fmt.Errorf("snapshot section %d: %w", i, err)
		}
		if err := frame(buf.Bytes()); err != nil {
			return fmt.Errorf("write section %d: %w", i, err)
		}
	}
	return nil
}

// Container reads a snapshot container. It buffers its source and keeps
// the source's name for errors; it is itself a named reader, and so is
// each of its sections, so a loader handed either reports the same source.
type Container struct {
	br   *bufio.Reader
	name string
}

// OpenContainer prepares r for reading; a *Container is returned as is.
func OpenContainer(r io.Reader) *Container {
	if c, ok := r.(*Container); ok {
		return c
	}
	return &Container{br: bufio.NewReader(r), name: streamName(r)}
}

// Read reads the rest of the buffered source.
func (c *Container) Read(p []byte) (int, error) { return c.br.Read(p) }

// Name names the source: its file path when it has one, "stream" otherwise.
func (c *Container) Name() string { return c.name }

// Holds reports whether the stream starts with magic, consuming nothing.
func (c *Container) Holds(magic string) bool {
	peek, err := c.br.Peek(len(magic))
	return err == nil && string(peek) == magic
}

// ReadManifest consumes magic and decodes the manifest section into m,
// then checks what header reads from it: the layout version must be
// version, and the section count in [1, maxSections] — a corrupt count is
// an error before any caller allocates by it. Give every map in m a value
// first: gob sizes a nil map by the element count the stream declares,
// before reading any element, so a corrupt count would allocate without
// bound; a non-nil map only grows with the elements actually present.
func (c *Container) ReadManifest(magic string, version int, m any, header func() (version, sections int)) error {
	if _, err := c.br.Discard(len(magic)); err != nil {
		return fmt.Errorf("%s: read magic: %w", c.name, err)
	}
	sec, err := c.Section()
	if err != nil {
		return fmt.Errorf("%s: read manifest: %w", c.name, err)
	}
	if err := gob.NewDecoder(sec).Decode(m); err != nil {
		return fmt.Errorf("%s: decode manifest: %w", c.name, err)
	}
	v, n := header()
	if v != version {
		return unsupported(c.name, fmt.Sprintf("container version %d (want %d)", v, version))
	}
	if n < 1 || n > maxSections {
		return fmt.Errorf("%s: corrupt manifest: %d sections", c.name, n)
	}
	return nil
}

// Section frames the next section; its reader ends at the section's end.
func (c *Container) Section() (io.Reader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	return section{io.LimitReader(c.br, int64(binary.BigEndian.Uint64(hdr[:]))), c.name}, nil
}

// section is one framed section, named after its container.
type section struct {
	io.Reader
	name string
}

func (s section) Name() string { return s.name }
