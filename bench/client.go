package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"uniask/internal/sse"
)

// apiClient is one closed-loop user: one keep-alive connection to the
// server under test, speaking the same JSON/SSE API a front end would.
type apiClient struct {
	base  string
	token string
	http  *http.Client
	rec   *recorder // times the SSE parser on a traced run; nil otherwise
	buf   []byte
}

func newAPIClient(base string, rec *recorder) *apiClient {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &apiClient{base: base, http: &http.Client{Transport: tr}, rec: rec, buf: make([]byte, 4096)}
}

func (c *apiClient) close() { c.http.CloseIdleConnections() }

// doc is one entry of a document list as the API returns it.
type doc struct {
	ID     string `json:"id"`
	Parent string `json:"parent"`
}

type askReply struct {
	Answer      string `json:"answer"`
	AnswerValid bool   `json:"answerValid"`
	Guardrail   string `json:"guardrail"`
	Documents   []doc  `json:"documents"`
	Degraded    bool   `json:"degraded"`
}

// errStatus is a response with a status the operation does not accept.
type errStatus struct{ code int }

func (e errStatus) Error() string { return fmt.Sprintf("status %d", e.code) }

// do sends one request and returns the whole body. Any status other than
// want is an error, after the body has been drained so the connection
// stays reusable.
func (c *apiClient) do(ctx context.Context, method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, errStatus{resp.StatusCode}
	}
	return data, nil
}

func (c *apiClient) login(ctx context.Context, user string) error {
	data, err := c.do(ctx, http.MethodPost, "/api/login", map[string]string{"user": user}, http.StatusOK)
	if err != nil {
		return fmt.Errorf("login: %w", err)
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.Token == "" {
		return fmt.Errorf("login: unusable reply %q", data)
	}
	c.token = out.Token
	return nil
}

// ask is one POST /api/ask.
func (c *apiClient) ask(ctx context.Context, question string) (askReply, error) {
	var out askReply
	data, err := c.do(ctx, http.MethodPost, "/api/ask", map[string]string{"question": question}, http.StatusOK)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("ask: unparsable body: %w", err)
	}
	return out, nil
}

// search is one GET /api/search?q=.
func (c *apiClient) search(ctx context.Context, query string) ([]doc, error) {
	data, err := c.do(ctx, http.MethodGet, "/api/search?q="+url.QueryEscape(query), nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var out []doc
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("search: unparsable body: %w", err)
	}
	return out, nil
}

// createSession is one POST /api/sessions.
func (c *apiClient) createSession(ctx context.Context) (string, error) {
	data, err := c.do(ctx, http.MethodPost, "/api/sessions", nil, http.StatusCreated)
	if err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("create session: unusable reply %q", data)
	}
	return out.ID, nil
}

// turnReply is what one streamed conversational turn delivered.
type turnReply struct {
	Documents  []doc
	Events     int
	Citations  time.Time // citations event parsed
	FirstToken time.Time // first token event parsed (zero when none)
	Done       time.Time // done event parsed
	Turn       int
	Degraded   bool
}

// turn streams one POST /api/sessions/{id}/ask to its done event and checks
// the stream's shape: citations before the first token, done last and
// without an error.
func (c *apiClient) turn(ctx context.Context, sessionID, question string) (turnReply, error) {
	var out turnReply
	b, err := json.Marshal(map[string]string{"question": question})
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/sessions/"+sessionID+"/ask", bytes.NewReader(b))
	if err != nil {
		return out, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return out, errStatus{resp.StatusCode}
	}
	var parser sse.Parser
	done := false
	for {
		n, rerr := resp.Body.Read(c.buf)
		if n > 0 {
			start := time.Now()
			events, perr := parser.Feed(c.buf[:n])
			now := time.Now()
			if c.rec.enabled() {
				c.rec.add(layerSSE, "sse.parse", start, now, len(events), perr != nil)
			}
			if perr != nil {
				return out, fmt.Errorf("turn: %w", perr)
			}
			for _, ev := range events {
				if done {
					return out, errors.New("turn: event after done")
				}
				out.Events++
				switch ev.Name {
				case "citations":
					if !out.FirstToken.IsZero() {
						return out, errors.New("turn: citations after a token")
					}
					var p struct {
						Documents []doc `json:"documents"`
					}
					if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
						return out, fmt.Errorf("turn: unparsable citations: %w", err)
					}
					out.Documents, out.Citations = p.Documents, now
				case "token":
					if out.Citations.IsZero() {
						return out, errors.New("turn: token before citations")
					}
					if out.FirstToken.IsZero() {
						out.FirstToken = now
					}
				case "done":
					var p struct {
						Turn     int    `json:"turn"`
						Degraded bool   `json:"degraded"`
						Error    string `json:"error"`
					}
					if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
						return out, fmt.Errorf("turn: unparsable done: %w", err)
					}
					if p.Error != "" {
						return out, fmt.Errorf("turn: done carries error %q", p.Error)
					}
					out.Turn, out.Degraded, out.Done, done = p.Turn, p.Degraded, now, true
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return out, rerr
		}
	}
	if !done {
		return out, errors.New("turn: stream ended without done")
	}
	return out, nil
}
