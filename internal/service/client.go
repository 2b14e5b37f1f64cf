package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// APIError is a non-2xx response from the server, preserving the status
// code so callers can react to admission control (429/503) specifically.
// Peer/SessionID carry the forwarding address when the server reports the
// session migrated to a peer; RetryAfter is the Retry-After header in
// seconds (0 when absent).
type APIError struct {
	Status     int
	Message    string
	Peer       string
	SessionID  string
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// StatusOf extracts the HTTP status of an error (0 for non-API errors).
func StatusOf(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// Client is a Go client for a repcutd server.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient creates a client for the given base URL
// (e.g. "http://127.0.0.1:8372").
func NewClient(base string) *Client {
	return &Client{BaseURL: base, HTTP: http.DefaultClient}
}

// do POSTs (or sends method) a JSON body and decodes the JSON response.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := ReadCapped(resp.Body, 64<<20)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// ReadCapped reads r to EOF but refuses a body longer than limit bytes. A
// plain limited read would cut the body at the cap and carry on, so an
// oversized response would surface later as malformed JSON or a content-hash
// mismatch instead of as what it is.
func ReadCapped(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("response exceeds %d bytes", limit)
	}
	return data, nil
}

// apiError assembles an APIError from a non-2xx response, extracting the
// migration forwarding address and Retry-After when present.
func apiError(resp *http.Response, data []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Message: string(data)}
	var er ErrorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		ae.Message = er.Error
		ae.Peer, ae.SessionID = er.Peer, er.SessionID
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			ae.RetryAfter = n
		}
	}
	return ae
}

// Health checks /healthz.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the /metrics snapshot.
func (c *Client) Metrics() (*MetricsSnapshot, error) {
	var m MetricsSnapshot
	if err := c.do(http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Compile requests a compile (served from cache when resident).
func (c *Client) Compile(req CompileRequest) (*CompileResponse, error) {
	var resp CompileResponse
	if err := c.do(http.MethodPost, "/v1/compile", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// NewSession opens a stateful simulation over a cached program, placed on
// the server's batched execution tier when possible.
func (c *Client) NewSession(key string) (*SessionHandle, error) {
	return c.newSession(CreateSessionRequest{Key: key})
}

// NewSoloSession opens a session pinned to a private engine, bypassing
// the batched tier.
func (c *Client) NewSoloSession(key string) (*SessionHandle, error) {
	return c.newSession(CreateSessionRequest{Key: key, Solo: true})
}

func (c *Client) newSession(req CreateSessionRequest) (*SessionHandle, error) {
	var resp SessionResponse
	if err := c.do(http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return nil, err
	}
	return &SessionHandle{c: c, ID: resp.SessionID, Design: resp.Design, Batched: resp.Batched}, nil
}

// SessionHandle drives one server-side session and assumes it is the
// session's only driver. It is not safe for concurrent use: it queues pokes,
// carries peeked outputs, and following a migration rewrites its client and
// ID.
//
// A lock-step cycle (Poke, Run, Peek) is one round trip. The server never
// re-evaluates on a poke, so a poked value is observable only after the next
// step or through state a checkpoint reads, and outputs change only on a
// step. So pokes are write-behind: the first poke of each port name goes to
// the server at once, so an unknown or wide port fails at Poke; later pokes
// to an accepted name queue on the handle and travel inside the next Run.
// And peeks ride on the step: once a /peek of an output has succeeded, every
// Run asks for it, and Peek returns the value the last Run answered with,
// without a request or a flush. A failed Run, and Close, drop those values.
// PeekReg, Checkpoint, StartVCD and an uncarried Peek send the queue through
// /poke first; VCD leaves it queued and Close drops it, since neither result
// depends on an input. Every result is the same as sending each poke when it
// was made and each peek when it was asked.
type SessionHandle struct {
	c       *Client
	ID      string
	Design  string
	Batched bool // placed on a batch lane at create time

	accepted map[string]bool // port names the server has taken a poke for
	pending  []PokeRequest   // queued pokes, oldest first
	watch    []string        // output names a /peek succeeded for, each once
	carried  []ValueResponse // outputs the last Run answered with; nil after a failure or Close
}

func (s *SessionHandle) path(op string) string {
	return "/v1/sessions/" + s.ID + "/" + op
}

// do sends one session operation, following a migration forwarding address
// once: when the server answers 503 with a peer + session ID (the session
// moved there during a drain), the handle re-targets itself at the peer and
// retries the operation against the migrated session.
func (s *SessionHandle) do(method, op string, in, out any) error {
	err := s.c.do(method, s.path(op), in, out)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable &&
		ae.Peer != "" && ae.SessionID != "" {
		base := ae.Peer
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		s.c = &Client{BaseURL: base, HTTP: s.c.HTTP}
		s.ID = ae.SessionID
		return s.c.do(method, s.path(op), in, out)
	}
	return err
}

// Poke sets a narrow input port: at once for the first poke of a name,
// queued for the next request after that (see SessionHandle).
func (s *SessionHandle) Poke(name string, v uint64) error {
	if s.accepted[name] {
		s.pending = append(s.pending, PokeRequest{Name: name, Value: v})
		return nil
	}
	// Queued pokes name other ports, and pokes to distinct ports commute.
	if err := s.do(http.MethodPost, "poke", PokeRequest{Name: name, Value: v}, nil); err != nil {
		return err
	}
	if s.accepted == nil {
		s.accepted = make(map[string]bool)
	}
	s.accepted[name] = true
	return nil
}

// flush sends the queued pokes through /poke, oldest first.
func (s *SessionHandle) flush() error {
	for len(s.pending) > 0 {
		if err := s.do(http.MethodPost, "poke", s.pending[0], nil); err != nil {
			s.settle(err)
			return err
		}
		s.pending = s.pending[1:]
	}
	return nil
}

// settle drops the queue after a request that carried it, unless the
// server never ran the operation: a 503 (draining, or a migration the
// handle could not follow) or a transport error leaves the pokes queued for
// the retry. Any other answer means they were applied, or that the session
// is gone.
func (s *SessionHandle) settle(err error) {
	if st := StatusOf(err); err == nil || (st != 0 && st != http.StatusServiceUnavailable) {
		s.pending = s.pending[:0]
	}
}

// Peek reads a narrow output port: the value the last Run carried, or else
// through /peek, after which every Run carries it (see SessionHandle).
func (s *SessionHandle) Peek(name string) (uint64, error) {
	for _, c := range s.carried {
		if c.Name == name {
			return c.Value, nil
		}
	}
	var resp ValueResponse
	if err := s.doFlushed(http.MethodPost, "peek", PeekRequest{Name: name}, &resp); err != nil {
		return 0, err
	}
	if !slices.Contains(s.watch, name) {
		s.watch = append(s.watch, name)
	}
	return resp.Value, nil
}

// PeekReg reads a narrow register.
func (s *SessionHandle) PeekReg(name string) (uint64, error) {
	var resp ValueResponse
	if err := s.doFlushed(http.MethodPost, "peek", PeekRequest{Name: name, Reg: true}, &resp); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// doFlushed sends an operation that does not carry the queue, flushing it
// first.
func (s *SessionHandle) doFlushed(method, op string, in, out any) error {
	if err := s.flush(); err != nil {
		return err
	}
	return s.do(method, op, in, out)
}

// Step advances one cycle and returns the session's total cycles.
func (s *SessionHandle) Step() (uint64, error) { return s.Run(1) }

// Run applies the queued pokes, advances n cycles and returns the session's
// total cycles. The answer carries the watched outputs for later Peeks.
func (s *SessionHandle) Run(n int) (uint64, error) {
	var resp StepResponse
	err := s.do(http.MethodPost, "run", StepRequest{Cycles: n, Pokes: s.pending, Peek: s.watch}, &resp)
	s.settle(err)
	s.carried = nil
	if err != nil {
		return 0, err
	}
	s.carried = resp.Outputs
	return resp.Cycle, nil
}

// Checkpoint serializes the session's simulation state; the result restores
// on any server whose cache holds the same key.
func (s *SessionHandle) Checkpoint() (*CheckpointResponse, error) {
	var resp CheckpointResponse
	if err := s.doFlushed(http.MethodPost, "checkpoint", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// StartVCD begins waveform capture on the session (spilling it off any
// batch lane server-side).
func (s *SessionHandle) StartVCD() error {
	return s.doFlushed(http.MethodPost, "vcd", nil, nil)
}

// VCD fetches the waveform dump accumulated since StartVCD. Queued pokes
// stay queued: the capture samples only on a step.
func (s *SessionHandle) VCD() ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.c.BaseURL+s.path("vcd"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := ReadCapped(resp.Body, 256<<20)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, data)
	}
	return data, nil
}

// Close tears the session down, returning its final cycle count. Queued
// pokes cannot change that, so a close that ran drops them unsent. The
// carried outputs go whatever the answer, so no Peek outlives the session.
func (s *SessionHandle) Close() (uint64, error) {
	s.carried = nil
	var resp StepResponse
	err := s.do(http.MethodPost, "close", nil, &resp)
	s.settle(err)
	if err != nil {
		return 0, err
	}
	return resp.Cycle, nil
}

// RestoreSession opens a session resuming from a checkpoint taken on this
// server or a peer. The key must already be compiled here.
func (c *Client) RestoreSession(key string, state []byte, solo bool) (*SessionHandle, error) {
	var resp SessionResponse
	req := RestoreSessionRequest{Key: key, Solo: solo, State: state}
	if err := c.do(http.MethodPost, "/v1/sessions/restore", req, &resp); err != nil {
		return nil, err
	}
	return &SessionHandle{c: c, ID: resp.SessionID, Design: resp.Design, Batched: resp.Batched}, nil
}
