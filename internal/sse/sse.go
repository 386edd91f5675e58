// Package sse implements the subset of the Server-Sent Events wire format
// the session layer speaks: a thread-safe server-side Writer with per-write
// deadlines (so a stuck client is cut without killing every other healthy
// long-lived stream the way a per-request write deadline would), and an
// incremental client-side Parser for cmd/uniask-chat that is hardened
// against hostile input — bounded event size, no panics, no quadratic
// buffering.
//
// Wire format (the parts of the WHATWG spec both ends use):
//
//	event: citations\n
//	data: {...}\n
//	\n
//
// Comment lines (leading ':') are heartbeats; multiple data: lines
// concatenate with '\n' per the spec.
package sse

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Event is one parsed or to-be-written SSE event.
type Event struct {
	// Name is the event: field ("message" when absent on the wire).
	Name string
	// Data is the event payload (multiple data: lines joined with '\n').
	Data string
}

// DefaultWriteTimeout bounds one event write to a client. A healthy client
// drains a frame in microseconds; one that has stopped reading (but kept
// the TCP connection alive) hits this and the stream is torn down.
const DefaultWriteTimeout = 10 * time.Second

// Writer writes SSE frames to an http.ResponseWriter. Safe for concurrent
// use: the turn pipeline and the heartbeat ticker write from different
// goroutines. Each write arms a fresh per-write deadline on the underlying
// connection (when the server supports it) and flushes.
type Writer struct {
	mu sync.Mutex
	w  http.ResponseWriter
	rc *http.ResponseController
	// timeout is the per-write deadline (0 = DefaultWriteTimeout,
	// negative = none).
	timeout time.Duration
	err     error // first write error; the stream is dead after one
}

// NewWriter prepares w for event streaming: sets the SSE headers and
// returns the writer. writeTimeout 0 means DefaultWriteTimeout, negative
// disables per-write deadlines.
func NewWriter(w http.ResponseWriter, writeTimeout time.Duration) *Writer {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	if writeTimeout == 0 {
		writeTimeout = DefaultWriteTimeout
	}
	return &Writer{w: w, rc: http.NewResponseController(w), timeout: writeTimeout}
}

// Event writes one named event with a single data line. The payload must
// not contain '\n' (encode JSON, which never does).
func (sw *Writer) Event(name, data string) error {
	return sw.write("event: " + name + "\ndata: " + data + "\n\n")
}

// Comment writes a comment frame — the keep-alive heartbeat clients ignore.
func (sw *Writer) Comment(text string) error {
	return sw.write(": " + text + "\n\n")
}

// write emits one frame under the lock with a fresh write deadline.
func (sw *Writer) write(frame string) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	if sw.timeout > 0 {
		// Per-write, not per-request: the deadline renews with every frame,
		// so an idle-but-healthy stream lives as long as heartbeats flow.
		if err := sw.rc.SetWriteDeadline(time.Now().Add(sw.timeout)); err != nil &&
			!errors.Is(err, http.ErrNotSupported) {
			sw.err = fmt.Errorf("sse: set write deadline: %w", err)
			return sw.err
		}
	}
	if _, err := fmt.Fprint(sw.w, frame); err != nil {
		sw.err = fmt.Errorf("sse: write: %w", err)
		return sw.err
	}
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		sw.err = fmt.Errorf("sse: flush: %w", err)
		return sw.err
	}
	return nil
}

// MaxEventSize bounds one event's accumulated size in the Parser. A server
// that streams an unbounded un-terminated frame (or an attacker feeding
// garbage) cannot make the client buffer more than this.
const MaxEventSize = 1 << 20

// ErrEventTooLarge is returned by Feed when one event exceeds MaxEventSize.
var ErrEventTooLarge = errors.New("sse: event exceeds size limit")

// Parser is an incremental SSE frame parser: feed it raw bytes as they
// arrive, collect completed events. The zero value is ready to use.
type Parser struct {
	buf     strings.Builder // current partial line
	name    string
	data    []string
	dataLen int
	sawCR   bool // a bare '\r' ends a line too (spec: CRLF, CR, LF)
}

// Feed consumes a chunk of the stream and returns the events completed by
// it. On ErrEventTooLarge the oversized event is dropped and parsing
// continues with the next event; other input never errors.
func (p *Parser) Feed(chunk []byte) ([]Event, error) {
	var (
		out []Event
		err error
	)
	for _, b := range chunk {
		if p.sawCR && b == '\n' {
			// LF of a CRLF pair: the CR already ended the line.
			p.sawCR = false
			continue
		}
		p.sawCR = false
		switch b {
		case '\r':
			p.sawCR = true
			fallthrough
		case '\n':
			ev, done, lineErr := p.endLine()
			if lineErr != nil {
				err = lineErr
				continue
			}
			if done {
				out = append(out, ev)
			}
		default:
			if p.buf.Len() >= MaxEventSize {
				// Oversized line: drop the event in progress, swallow until
				// the next line ending.
				p.buf.Reset()
				p.name, p.data, p.dataLen = "", nil, 0
				err = ErrEventTooLarge
				continue
			}
			p.buf.WriteByte(b)
		}
	}
	return out, err
}

// endLine processes one completed line; done reports a dispatched event.
func (p *Parser) endLine() (ev Event, done bool, err error) {
	line := p.buf.String()
	p.buf.Reset()
	switch {
	case line == "":
		// Blank line dispatches the pending event (if it has any content).
		if p.name == "" && p.data == nil {
			return Event{}, false, nil
		}
		name := p.name
		if name == "" {
			name = "message"
		}
		ev = Event{Name: name, Data: strings.Join(p.data, "\n")}
		p.name, p.data, p.dataLen = "", nil, 0
		return ev, true, nil
	case strings.HasPrefix(line, ":"):
		// Comment (heartbeat): ignored.
		return Event{}, false, nil
	case strings.HasPrefix(line, "event:"):
		p.name = strings.TrimPrefix(strings.TrimPrefix(line, "event:"), " ")
	case strings.HasPrefix(line, "data:"):
		d := strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
		if p.dataLen+len(d) > MaxEventSize {
			p.name, p.data, p.dataLen = "", nil, 0
			return Event{}, false, ErrEventTooLarge
		}
		p.data = append(p.data, d)
		p.dataLen += len(d) + 1
	default:
		// Unknown field (id:, retry:, or garbage): ignored per spec.
	}
	return Event{}, false, nil
}
