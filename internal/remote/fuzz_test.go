package remote

// FuzzRemoteWire feeds adversarial bytes to the frame decoder and the gob
// envelope decoders — the two layers that consume untrusted network input
// on both ends of a connection. The invariants under fuzzing:
//
//   - ReadFrame never panics and never allocates beyond the configured cap,
//     no matter what length prefix the peer sends.
//   - A frame ReadFrame accepts is at most the cap; ErrFrameTooLarge frames
//     consume only the 4 header bytes.
//   - decodeRequest / decodeResponse never panic on corrupt gob payloads —
//     they return an error (or a value) and nothing else.
//   - A well-formed frame round-trips: WriteFrame then ReadFrame yields the
//     identical payload.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"uniask/internal/index"
)

func FuzzRemoteWire(f *testing.F) {
	// Seeds: a tiny valid frame, a zero-length frame, a truncated header, a
	// huge length prefix with no payload, a cap-boundary prefix, and real
	// encoded request/response envelopes prefixed by their true length
	// (a search pair, and the batched document fetch whose reply carries
	// zero Documents for the ids it did not find).
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 4, 1})
	for _, envelope := range []any{
		&request{Op: opSearchText, Query: "blocco carta", N: 5},
		&response{Err: "boom", OK: true},
		&request{Op: opDocsByID, Shard: 2, IDs: []string{"kb00001#0", "nope#0", "kb00001#0"}},
		&response{Docs: []index.Document{testDoc(1), {}, testDoc(1)}},
	} {
		if payload, err := encodeFrame(envelope); err == nil {
			var buf bytes.Buffer
			WriteFrame(&buf, payload)
			f.Add(buf.Bytes())
		}
	}

	const frameCap = 1 << 10 // tiny cap so the fuzzer reaches the refusal path often
	f.Fuzz(func(t *testing.T, data []byte) {
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
				if n := binary.BigEndian.Uint32(data[:4]); int64(n) <= frameCap {
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
		if req, err := decodeRequest(payload); err == nil && req == nil {
			t.Fatal("decodeRequest returned nil request without error")
		}
		if resp, err := decodeResponse(payload); err == nil && resp == nil {
			t.Fatal("decodeResponse returned nil response without error")
		}

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
	})
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
