package service

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repcut "repro"
)

// quietLogger drops request logs so -v test output stays readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer boots a service behind httptest with test-friendly knobs.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, client, _ := newCountingServer(t, cfg)
	return srv, client
}

// newCountingServer is newTestServer plus a count of the HTTP requests the
// server has received.
func newCountingServer(t *testing.T, cfg Config) (*Server, *Client, *atomic.Int64) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv := New(cfg)
	requests := new(atomic.Int64)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, NewClient(ts.URL), requests
}

// firstNarrow picks the first ≤64-bit port from a table, "" if none.
func firstNarrow(ports []PortInfo) string {
	for _, p := range ports {
		if !p.Wide {
			return p.Name
		}
	}
	return ""
}

// wireSrc is a small open design (a real top-level input) for driving
// input traces across the wire; the built-in benchmark designs are
// self-stimulating and closed.
const wireSrc = `
circuit WireDet {
  module WireDet {
    input  in   : UInt<16>
    output outA : UInt<16>
    output outB : UInt<16>
    reg a : UInt<16> init 1
    reg b : UInt<16> init 2
    reg c : UInt<16> init 3
    reg d : UInt<16> init 5
    node na = tail(add(a, in), 1)
    node nb = xor(b, na)
    node nc = tail(add(c, xor(in, d)), 1)
    node nd = tail(add(d, UInt<16>(7)), 1)
    a <= mux(eq(in, UInt<16>(0)), a, na)
    b <= nb
    c <= nc
    d <= mux(gt(nc, nd), nd, xor(nd, b))
    outA <= xor(a, c)
    outB <= tail(add(b, d), 1)
  }
}
`

// TestWireDeterminism proves the acceptance criterion: for a fixed seed
// and input trace, outputs peeked through a repcutd session are
// bit-identical to a direct sim.Engine run of the same design.
func TestWireDeterminism(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	_, client := newTestServer(t, Config{Workers: 2})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}

	// Direct reference run: same design, same options, same trace.
	circ, err := repcut.ParseCircuit(wireSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repcut.Elaborate(circ)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.CompileParallel(req.Options(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Program().Fingerprint(); cr.Program.Fingerprint != fpHex(want) {
		t.Fatalf("served fingerprint %s != offline %s", cr.Program.Fingerprint, fpHex(want))
	}
	if want := ref.Program().Linked().ExchangeWords(); !slices.Equal(cr.Program.ExchangeWords, want) {
		t.Fatalf("served exchange_words %v != offline %v", cr.Program.ExchangeWords, want)
	}

	in := firstNarrow(cr.Inputs)
	if in == "" {
		t.Fatal("design has no narrow input to drive")
	}
	var outs []string
	for _, o := range cr.Outputs {
		if !o.Wide {
			outs = append(outs, o.Name)
		}
	}
	if len(outs) == 0 {
		t.Fatal("design has no narrow outputs to compare")
	}

	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	trace := []uint64{0, 1, 0xffff, 42, 7, 0, 0x1234, 3, 3, 0x8000}
	for step, v := range trace {
		if err := sess.Poke(in, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput(in, v); err != nil {
			t.Fatal(err)
		}
		cyc, err := sess.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(3)
		if cyc != ref.Cycles() {
			t.Fatalf("step %d: session cycles %d != reference %d", step, cyc, ref.Cycles())
		}
		for _, o := range outs {
			got, err := sess.Peek(o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.PeekOutput(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d: output %s = %#x over the wire, %#x direct", step, o, got, want)
			}
		}
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func fpHex(v uint64) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b)
}

func TestConcurrentCompileOverWire(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 1})
	req := smallReq(11)

	const N = 8
	resps := make([]*CompileResponse, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := client.Compile(req)
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	if got := srv.Cache().Len(); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
	want := fpHex(offlineFingerprint(t, req))
	hits := 0
	for i, r := range resps {
		if r == nil {
			t.Fatalf("request %d failed", i)
		}
		if r.Program.Fingerprint != want {
			t.Errorf("request %d fingerprint %s != offline %s", i, r.Program.Fingerprint, want)
		}
		if r.CacheHit {
			hits++
		}
	}
	if hits != N-1 {
		t.Errorf("cache_hit count = %d, want %d (one miss)", hits, N-1)
	}
}

func TestSessionAdmission(t *testing.T) {
	srv, client := newTestServer(t, Config{MaxSessions: 2, Workers: 1})
	cr, err := client.Compile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = client.NewSession(cr.Key); err != nil {
		t.Fatal(err)
	}
	// Third create exceeds the limit → 429.
	_, err = client.NewSession(cr.Key)
	if StatusOf(err) != http.StatusTooManyRequests {
		t.Fatalf("third create: err = %v, want HTTP 429", err)
	}
	if got := srv.Metrics().Sessions.Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// Closing one frees a slot.
	if _, err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSession(cr.Key); err != nil {
		t.Fatalf("create after close: %v", err)
	}
}

func TestIdleReaping(t *testing.T) {
	srv, client := newTestServer(t, Config{
		MaxSessions: 4, Workers: 1,
		IdleTimeout:  50 * time.Millisecond,
		ReapInterval: time.Hour, // reap manually for determinism
	})
	cr, err := client.Compile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Not yet idle: a reap "now" must not touch it.
	if n := srv.Sessions().Reap(time.Now()); n != 0 {
		t.Fatalf("reaped %d fresh sessions", n)
	}
	// An hour from now it is long idle.
	if n := srv.Sessions().Reap(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if got := srv.Sessions().Live(); got != 0 {
		t.Errorf("live sessions = %d after reap", got)
	}
	if got := srv.Metrics().Sessions.Reaped; got != 1 {
		t.Errorf("reaped counter = %d, want 1", got)
	}
	// Operations on the reaped session report it gone (404).
	_, err = sess.Step()
	if StatusOf(err) != http.StatusNotFound {
		t.Fatalf("step after reap: err = %v, want HTTP 404", err)
	}
	// The freed slot admits a new session.
	if _, err := client.NewSession(cr.Key); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 1})
	cr, err := client.Compile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}

	// Hold an in-flight operation open while Shutdown runs: the drain
	// must wait for it rather than yanking the session.
	opEntered := make(chan struct{})
	opDone := make(chan struct{})
	// Completion is recorded inside the Do closure: Do releases the session
	// (which is what Shutdown waits on) before the goroutine gets to run
	// its deferred close.
	var opRan atomic.Bool
	go func() {
		defer close(opDone)
		err := srv.Sessions().Do(sess.ID, func(s *Session) error {
			close(opEntered)
			time.Sleep(100 * time.Millisecond)
			s.Run(1)
			opRan.Store(true)
			return nil
		})
		if err != nil {
			t.Error("in-flight op failed during drain:", err)
		}
	}()
	<-opEntered

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Errorf("shutdown returned after %v — did not drain the in-flight op", waited)
	}
	if !opRan.Load() {
		t.Error("shutdown returned before the in-flight op completed")
	}
	<-opDone
	if got := srv.Sessions().Live(); got != 0 {
		t.Errorf("live sessions = %d after drain", got)
	}
	// Everything is refused while drained: ops and creates get 503/404.
	if _, err := sess.Step(); err == nil {
		t.Error("step succeeded after drain")
	}
	_, err = client.NewSession(cr.Key)
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Errorf("create after drain: err = %v, want HTTP 503", err)
	}
}

func TestHealthAndMetricsSurface(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 1})
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	cr, err := client.Compile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Compile(smallReq(1)); err != nil { // a hit
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(25); err != nil {
		t.Fatal(err)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", m.Cache.HitRate)
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Errorf("cache entries/bytes = %d/%d", m.Cache.Entries, m.Cache.Bytes)
	}
	if m.Sessions.Live != 1 || m.Sessions.Created != 1 {
		t.Errorf("sessions live/created = %d/%d, want 1/1", m.Sessions.Live, m.Sessions.Created)
	}
	if m.Sim.CyclesTotal != 25 {
		t.Errorf("cycles_total = %d, want 25", m.Sim.CyclesTotal)
	}
	if m.Sim.CyclesPerSec <= 0 {
		t.Errorf("cycles_per_sec = %v, want > 0", m.Sim.CyclesPerSec)
	}
	if m.Compile.Latency.Count != 1 || m.Compile.Latency.P50Ms <= 0 {
		t.Errorf("compile latency snapshot = %+v", m.Compile.Latency)
	}
	if m.Sim.StepLatency.Count != 1 {
		t.Errorf("step latency count = %d, want 1", m.Sim.StepLatency.Count)
	}
	_ = srv
}

func TestErrorPaths(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})

	// Unknown design family → 400.
	_, err := client.Compile(CompileRequest{Design: "Zilog-1C", Threads: 2})
	if StatusOf(err) != http.StatusBadRequest {
		t.Errorf("unknown design: err = %v, want HTTP 400", err)
	}
	// Naming both halves → 400.
	_, err = client.Compile(CompileRequest{Design: "RocketChip-1C", Source: "circuit x", Threads: 2})
	if StatusOf(err) != http.StatusBadRequest {
		t.Errorf("design+source: err = %v, want HTTP 400", err)
	}
	// A division of two 65536-bit values would lower to hundreds of millions
	// of word instructions → 400, before any of them is emitted.
	start := time.Now()
	_, err = client.Compile(CompileRequest{Source: `
circuit BigDiv {
  module BigDiv {
    input a : UInt<65536>
    input b : UInt<65536>
    output q : UInt<65536>
    q <= div(a, b)
  }
}`})
	if StatusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "word steps") {
		t.Errorf("oversized wide div: err = %v, want HTTP 400 naming the word-step bound", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("oversized wide div took %v to refuse", el)
	}
	// Session over an unknown key → 404.
	_, err = client.NewSession(strings.Repeat("ab", 32))
	if StatusOf(err) != http.StatusNotFound {
		t.Errorf("unknown key: err = %v, want HTTP 404", err)
	}

	cr, err := client.Compile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Bad port name → 400.
	if err := sess.Poke("io_no_such_port", 1); StatusOf(err) != http.StatusBadRequest {
		t.Errorf("bad poke: err = %v, want HTTP 400", err)
	}
	if _, err := sess.Peek("io_no_such_port"); StatusOf(err) != http.StatusBadRequest {
		t.Errorf("bad peek: err = %v, want HTTP 400", err)
	}
	// Cycle cap → 400.
	if _, err := sess.Run(maxRunCycles + 1); StatusOf(err) != http.StatusBadRequest {
		t.Errorf("over-cap run: err = %v, want HTTP 400", err)
	}
	// A body over the cap → 413, not a truncated-JSON 400.
	huge := make([]byte, maxRequestBody+1)
	for _, path := range []string{sess.path("step"), "/v1/compile"} {
		resp, err := http.Post(client.BaseURL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("over-cap body to %s: HTTP %d, want 413", path, resp.StatusCode)
		}
	}
	// Ops on a closed session → 404.
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); StatusOf(err) != http.StatusNotFound {
		t.Errorf("step after close: err = %v, want HTTP 404", err)
	}
	if _, err := sess.Close(); StatusOf(err) != http.StatusNotFound {
		t.Errorf("double close: err = %v, want HTTP 404", err)
	}
}

// TestConcurrentSessions runs many sessions over one cached program in
// parallel under -race: engines must share nothing but the program.
func TestConcurrentSessions(t *testing.T) {
	_, client := newTestServer(t, Config{MaxSessions: 32, Workers: 2})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)
	out := firstNarrow(cr.Outputs)

	const N = 8
	finals := make([]uint64, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := client.NewSession(cr.Key)
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			// Identical traces must produce identical outputs in every
			// session, no matter how the others interleave.
			if err := sess.Poke(in, 5); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Run(50); err != nil {
				t.Error(err)
				return
			}
			v, err := sess.Peek(out)
			if err != nil {
				t.Error(err)
				return
			}
			finals[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < N; i++ {
		if finals[i] != finals[0] {
			t.Fatalf("session %d diverged: %#x != %#x", i, finals[i], finals[0])
		}
	}
}
