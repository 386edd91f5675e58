package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"uniask/internal/index"
)

// Wire format. A connection opens with a fixed handshake line in each
// direction, then carries length-prefixed frames:
//
//	"uniask-remote/2\n"                  (client → server, echoed back)
//	frame := u32 big-endian payload length | payload
//	payload := the gob messages of one request or one response
//
// Each end of a connection keeps one gob encoder and one gob decoder for
// the connection's lifetime (a codec), so a type descriptor crosses once
// per connection, in the first frame that carries a value of that type.
// A frame holds exactly one value: bytes left after it are an error. Any
// encode, decode or transport error retires the connection on that side,
// because the two ends' type state can no longer be trusted to agree. The
// frame reader enforces a length cap BEFORE allocating: an adversarial or
// corrupt length prefix is refused with ErrFrameTooLarge and at most 4
// header bytes read, never a giant allocation or a panic (FuzzRemoteWire
// pins this).
//
// Both ends speak only version 2, the previous release's wire version too
// (docs/OPERATIONS.md, "Compatibility"). A server hangs up on any other
// banner without echoing it, so a client of another version sees
// ErrBadHandshake.

// Handshake is the connection-opening protocol banner; the version digit
// bumps on any incompatible wire change.
const Handshake = "uniask-remote/2\n"

// maxPooledFrame is the payload size, in either direction, above which a
// client retires a connection instead of pooling it: a gob encoder keeps
// the buffer of its largest message for its lifetime, so a pooled
// connection that once carried a bulk batch would pin that memory on both
// ends. 256 KiB sits above every query frame (a docsByID reply is at most
// about 100 KB) and below an ingest batch.
const maxPooledFrame = 256 << 10

// DefaultMaxFrame bounds a frame payload (64 MiB): far above any query or
// stats frame, sized for bulk-ingest batches and snapshot transfers.
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge is returned by ReadFrame when the length prefix exceeds
// the configured cap. The stream position is poisoned (the oversized
// payload was not consumed), so the connection must be closed.
var ErrFrameTooLarge = errors.New("remote: frame length exceeds cap")

// ErrBadHandshake is returned when the peer does not speak the protocol
// (wrong banner or wrong version).
var ErrBadHandshake = errors.New("remote: bad protocol handshake")

// errTrailingBytes reports a frame whose payload continues past its value.
var errTrailingBytes = errors.New("remote: trailing bytes after the frame's value")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, refusing payloads above max (0 means
// DefaultMaxFrame) before any payload allocation happens.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// codec is one end's gob state for one connection. Values are encoded and
// decoded in frame order; after any error the codec, like its connection,
// is discarded. Not safe for concurrent use (a connection carries one RPC
// at a time).
type codec struct {
	out bytes.Buffer
	enc *gob.Encoder
	in  bytes.Reader
	dec *gob.Decoder
}

func newCodec() *codec {
	c := &codec{}
	c.enc = gob.NewEncoder(&c.out)
	// A bytes.Reader is an io.ByteReader, so the decoder reads it directly
	// instead of through a read-ahead buffer: it never sees past the frame.
	c.dec = gob.NewDecoder(&c.in)
	return c
}

// encode returns the payload of the frame carrying v. The slice is valid
// until the next encode.
func (c *codec) encode(v any) ([]byte, error) {
	c.out.Reset()
	if err := c.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("remote: encode %T: %w", v, err)
	}
	return c.out.Bytes(), nil
}

// decode decodes one frame's payload into v; the payload must hold exactly
// the gob messages of one value. It never panics on adversarial bytes.
func (c *codec) decode(payload []byte, v any) error {
	c.in.Reset(payload)
	if err := c.dec.Decode(v); err != nil {
		return fmt.Errorf("remote: decode %T: %w", v, err)
	}
	if n := c.in.Len(); n > 0 {
		return fmt.Errorf("%w: %d bytes", errTrailingBytes, n)
	}
	return nil
}

// op identifies one RPC.
type op uint8

// RPC operations. The numeric values are part of the wire format; append
// only.
const (
	opPing op = iota + 1
	opCollectStats
	opSearchText
	opSearchTextGlobal
	opSearchVector
	opAdd
	opAddBulk
	opDelete
	opDeleteParent
	opParentChunkIDs
	// opRetiredHasParent was the single-id presence question. Servers
	// stopped answering it one release after opHasParents arrived; the
	// value stays reserved and is never reused.
	opRetiredHasParent
	opDocByID
	opDoc
	opLiveDocs
	opStatus
	opPublish
	opWaitCompaction
	opSnapshot
	opDocsByID
	// opHasParents asks about a batch of KB documents at once.
	opHasParents
	// opEnd is one past the last op. It is never sent; the op-table test
	// walks [opPing, opEnd).
	opEnd
)

func (o op) String() string {
	switch o {
	case opPing:
		return "ping"
	case opCollectStats:
		return "collectStats"
	case opSearchText:
		return "searchText"
	case opSearchTextGlobal:
		return "searchTextGlobal"
	case opSearchVector:
		return "searchVector"
	case opAdd:
		return "add"
	case opAddBulk:
		return "addBulk"
	case opDelete:
		return "delete"
	case opDeleteParent:
		return "deleteParent"
	case opParentChunkIDs:
		return "parentChunkIDs"
	case opDocByID:
		return "docByID"
	case opDoc:
		return "doc"
	case opLiveDocs:
		return "liveDocs"
	case opStatus:
		return "status"
	case opPublish:
		return "publish"
	case opWaitCompaction:
		return "waitCompaction"
	case opSnapshot:
		return "snapshot"
	case opDocsByID:
		return "docsByID"
	case opHasParents:
		return "hasParents"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// request is the one envelope every RPC uses; unused fields stay zero and
// cost almost nothing on the wire (gob omits them).
type request struct {
	Op    op
	Shard int
	// TraceID propagates the caller's trace across the process boundary:
	// the shard server stamps it on its own request span, so client-side
	// remote.rpc spans and server-side spans correlate by id.
	TraceID string

	Query   string
	N       int
	Opts    index.TextOptions
	Stats   *index.CorpusStats
	Fields  []string
	Terms   []string
	Field   string
	Vector  []float32
	K       int
	Filters []index.Filter
	Docs    []index.Document
	ID      string
	Ord     int
	// IDs is the opDocsByID or opHasParents batch; the reply's Docs or
	// Present align with it.
	IDs []string
}

// shardStatus is the combined gauge/staleness snapshot of one hosted shard,
// fetched in a single RPC.
type shardStatus struct {
	StatsKey   uint64
	Len        int
	LiveLen    int
	Tombstones int
	Stats      index.Stats
	Segments   index.SegmentStats
}

// response is the reply envelope. Err carries an application-level error
// (duplicate id, bad snapshot, oversized request frame) as text; transport
// health is judged only by the connection itself, so application errors
// never trip the endpoint circuit breaker.
type response struct {
	Err string

	Hits     []index.Hit
	Stats    *index.CorpusStats
	Docs     []index.Document
	Doc      *index.Document
	OK       bool
	N        int
	IDs      []string
	Status   *shardStatus
	Snapshot []byte
	// Present answers opHasParents, aligned with the request's IDs.
	Present []bool
}
