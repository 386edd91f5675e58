package remote

// FuzzRemoteWire feeds adversarial bytes to the frame decoder, the gob
// envelope decoders and the server's per-connection stream — the layers
// that consume untrusted network input on both ends of a connection. The
// invariants under fuzzing:
//
//   - ReadFrame never panics and never allocates beyond the configured cap,
//     no matter what length prefix the peer sends.
//   - A frame ReadFrame accepts is at most the cap; ErrFrameTooLarge frames
//     consume only the 4 header bytes.
//   - A fresh codec never panics on a corrupt gob payload — it returns an
//     error (or a value) and nothing else.
//   - A well-formed frame round-trips: WriteFrame then ReadFrame yields the
//     identical payload.
//   - Fed as a sequence of frames to one server-side codec, the input never
//     makes the server panic or read a frame past the cap; every frame it
//     reads gets exactly one reply, the replies form a valid stream for one
//     client-side codec, and a frame that fails (over the cap, undecodable,
//     trailing bytes) gets an error reply and ends the stream: nothing after
//     it is read.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"uniask/internal/index"
)

// frameStream concatenates the frames carrying vs, all encoded by one codec
// as one connection would send them.
func frameStream(vs ...any) []byte {
	c := newCodec()
	var buf bytes.Buffer
	for _, v := range vs {
		payload, err := c.encode(v)
		if err != nil {
			panic(err)
		}
		WriteFrame(&buf, payload)
	}
	return buf.Bytes()
}

func FuzzRemoteWire(f *testing.F) {
	// Seeds: a tiny valid frame, a zero-length frame, a truncated header, a
	// huge length prefix with no payload, a cap-boundary prefix, and real
	// encoded request/response envelopes prefixed by their true length
	// (a search pair, the batched document fetch whose reply carries zero
	// Documents for the ids it did not find, and a presence batch of 100
	// page ids with its aligned reply).
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 4, 1})
	pages := make([]string, 100)
	present := make([]bool, len(pages))
	for i := range pages {
		pages[i] = fmt.Sprintf("kb%05d", i)
		present[i] = i%3 == 0
	}
	for _, envelope := range []any{
		&request{Op: opSearchText, Query: "blocco carta", N: 5},
		&response{Err: "boom", OK: true},
		&request{Op: opDocsByID, Shard: 2, IDs: []string{"kb00001#0", "nope#0", "kb00001#0"}},
		&response{Docs: []index.Document{testDoc(1), {}, testDoc(1)}},
		&request{Op: opHasParents, Shard: 1, IDs: pages},
		&response{Present: present},
	} {
		f.Add(frameStream(envelope))
	}
	// Multi-frame seeds: one connection's requests (later frames carry no
	// type descriptors); the same with a garbage frame, a repeated
	// standalone stream (its descriptors are duplicates on a live
	// connection) and trailing bytes in the middle; and a stream whose
	// second frame is over the cap.
	ping, search := &request{Op: opPing}, &request{Op: opSearchText, Query: "conto", N: 3}
	conversation := frameStream(ping, search, &request{Op: opDocsByID, IDs: []string{"kb00001#0"}})
	f.Add(conversation)
	f.Add(append(frameStream(ping), append([]byte{0, 0, 0, 3, 1, 2, 3}, frameStream(search)...)...))
	f.Add(append(frameStream(ping), frameStream(ping)...))
	trailing := frameStream(ping)
	binary.BigEndian.PutUint32(trailing, binary.BigEndian.Uint32(trailing)+1)
	f.Add(append(append(trailing, 0), frameStream(search)...))
	f.Add(append(frameStream(ping), 0, 0, 0x10, 0))

	const frameCap = 1 << 10 // tiny cap so the fuzzer reaches the refusal path often
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOneFrame(t, data, frameCap)
		checkStream(t, data, frameCap)
	})
}

// checkOneFrame holds the frame reader and a fresh codec to the single-frame
// invariants.
func checkOneFrame(t *testing.T, data []byte, frameCap int) {
	r := bytes.NewReader(data)
	payload, err := ReadFrame(r, frameCap)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			// The refusal must happen before the payload is consumed:
			// exactly 4 header bytes gone, and the declared length must
			// really exceed the cap.
			if consumed := len(data) - r.Len(); consumed != 4 {
				t.Fatalf("ErrFrameTooLarge consumed %d bytes, want 4", consumed)
			}
			if n := binary.BigEndian.Uint32(data[:4]); int64(n) <= int64(frameCap) {
				t.Fatalf("refused %d-byte frame under the %d cap", n, frameCap)
			}
		}
		return
	}
	if len(payload) > frameCap {
		t.Fatalf("accepted %d-byte payload over the %d cap", len(payload), frameCap)
	}
	if n := binary.BigEndian.Uint32(data[:4]); int(n) != len(payload) {
		t.Fatalf("frame declared %d bytes, delivered %d", n, len(payload))
	}

	// Whatever the payload holds, the envelope decoders must not panic.
	var req request
	_ = newCodec().decode(payload, &req)
	var resp response
	_ = newCodec().decode(payload, &resp)

	// Round-trip: re-framing the accepted payload must reproduce it.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	again, err := ReadFrame(&buf, frameCap)
	if err != nil {
		t.Fatalf("re-read of a written frame: %v", err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("frame round-trip changed the payload")
	}
}

// checkStream serves data as one connection's request bytes and checks
// what the server read and what it answered.
func checkStream(t *testing.T, data []byte, frameCap int) {
	srv := NewServer(ServerConfig{Index: testConfig(), MaxFrame: frameCap})
	defer srv.Close()
	in := bytes.NewReader(data)
	var out bytes.Buffer
	srv.serve(struct {
		io.Reader
		io.Writer
	}{in, &out})
	consumed := len(data) - in.Len()

	// Walk the frames the server read: all complete and within the cap,
	// except that the last may be a refused header or a truncated frame.
	frames, pos, refused := 0, 0, false
	for pos < consumed {
		if consumed-pos < 4 {
			if consumed != len(data) {
				t.Fatalf("server stopped inside a frame header at %d of %d bytes", consumed, len(data))
			}
			break
		}
		n := int64(binary.BigEndian.Uint32(data[pos:]))
		if n > int64(frameCap) {
			if consumed != pos+4 {
				t.Fatalf("over-cap frame at %d: server read %d bytes past its header, want 0", pos, consumed-pos-4)
			}
			refused = true
			break
		}
		if int64(consumed-pos-4) < n {
			if consumed != len(data) {
				t.Fatalf("server stopped inside a frame at %d of %d bytes", consumed, len(data))
			}
			break // truncated by EOF: no reply is owed
		}
		frames++
		pos += 4 + int(n)
	}
	if refused {
		frames++
	}

	// The replies are one valid stream, one reply per frame read.
	c := newCodec()
	var last response
	replies := 0
	for {
		payload, err := ReadFrame(&out, 0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("reply %d: %v", replies, err)
		}
		last = response{}
		if err := c.decode(payload, &last); err != nil {
			t.Fatalf("reply %d does not decode on the client's codec: %v", replies, err)
		}
		replies++
	}
	if replies != frames {
		t.Fatalf("server read %d frames and sent %d replies", frames, replies)
	}
	// A stream that ended before the input did ended on a failed frame,
	// and the server said why.
	if consumed < len(data) && last.Err == "" {
		t.Fatalf("server stopped after %d of %d bytes without an error reply", consumed, len(data))
	}
}

// TestReadFrameShortHeader pins the non-fuzz edge: a reader that dies before
// delivering 4 header bytes yields io.EOF / io.ErrUnexpectedEOF, never a
// partial-frame success.
func TestReadFrameShortHeader(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}
