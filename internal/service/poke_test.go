package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	repcut "repro"
	"repro/internal/sim"
)

// pokeSetup opens a session on wireSrc and a private reference simulator
// compiled with the same options.
func pokeSetup(t *testing.T, cfg Config) (*Server, *Client, *SessionHandle, *repcut.Simulator) {
	t.Helper()
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, cfg)
	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	return srv, client, h, wireRef(t, req)
}

// pokeBoth pokes "in" on the handle and on the reference.
func pokeBoth(t *testing.T, h *SessionHandle, ref *repcut.Simulator, v uint64) {
	t.Helper()
	if err := h.Poke("in", v); err != nil {
		t.Fatal(err)
	}
	if err := ref.PokeInput("in", v); err != nil {
		t.Fatal(err)
	}
}

// sameOutputs compares every output of the session with the reference.
func sameOutputs(t *testing.T, h *SessionHandle, ref *repcut.Simulator, when string) {
	t.Helper()
	for _, out := range []string{"outA", "outB"} {
		got, err := h.Peek(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PeekOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: %s = %#x, reference %#x", when, out, got, want)
		}
	}
}

// TestPokeCarriedInOrder: the server applies a step request's pokes in
// order (the last value of a name wins) before stepping, and the handle
// sends only the first poke of a name at once, queueing later ones for the
// next Run. A Peek that asks the server sends the queue first; a carried
// Peek leaves it for the next Run.
func TestPokeCarriedInOrder(t *testing.T) {
	_, client, h, ref := pokeSetup(t, Config{})

	// The raw protocol.
	var resp StepResponse
	req := StepRequest{Cycles: 2, Pokes: []PokeRequest{{Name: "in", Value: 0x1111}, {Name: "in", Value: 0x2222}}}
	if err := client.do(http.MethodPost, h.path("run"), req, &resp); err != nil {
		t.Fatal(err)
	}
	if err := ref.PokeInput("in", 0x2222); err != nil {
		t.Fatal(err)
	}
	ref.Run(2)
	if resp.Cycle != 2 {
		t.Fatalf("carried step returned cycle %d, want 2", resp.Cycle)
	}

	// The handle: first poke at once, later ones queued in order.
	pokeBoth(t, h, ref, 3)
	if len(h.pending) != 0 {
		t.Fatalf("first poke of a name queued (%d pending)", len(h.pending))
	}
	pokeBoth(t, h, ref, 5)
	pokeBoth(t, h, ref, 0x8001)
	if len(h.pending) != 2 {
		t.Fatalf("%d pokes pending, want 2", len(h.pending))
	}
	// No step has carried an output to the handle yet, so Peek asks the
	// server and sends the queue through /poke first. Pokes never
	// re-evaluate: the outputs are still the raw step's.
	sameOutputs(t, h, ref, "raw step with two pokes")
	if len(h.pending) != 0 {
		t.Fatalf("uncarried Peek left %d pokes queued", len(h.pending))
	}
	for cyc := 0; cyc < 4; cyc++ {
		if _, err := h.Run(1 + cyc); err != nil {
			t.Fatal(err)
		}
		ref.Run(1 + cyc)
		if len(h.pending) != 0 {
			t.Fatalf("Run left %d pokes queued", len(h.pending))
		}
		sameOutputs(t, h, ref, fmt.Sprintf("handle step %d", cyc))
		pokeBoth(t, h, ref, uint64(cyc*977+1))
		pokeBoth(t, h, ref, uint64(cyc*31))
	}
	// A carried Peek reads the last step's answer and leaves the queue for
	// the next Run.
	sameOutputs(t, h, ref, "carried peek with pokes queued")
	if len(h.pending) != 2 {
		t.Fatalf("carried Peek left %d pokes queued, want 2", len(h.pending))
	}
	if _, err := h.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	sameOutputs(t, h, ref, "step after a carried peek")
}

// TestPokeQueuedCheckpoint: a checkpoint taken with a poke still queued
// sends it first, so the checkpoint equals one of an in-process engine
// poked directly — the same state_hash, and a blob that steps to the same
// state as that engine does.
func TestPokeQueuedCheckpoint(t *testing.T) {
	_, _, h, ref := pokeSetup(t, Config{})
	pokeBoth(t, h, ref, 9)
	if _, err := h.Run(4); err != nil {
		t.Fatal(err)
	}
	ref.Run(4)
	pokeBoth(t, h, ref, 0x4321)
	if len(h.pending) != 1 {
		t.Fatalf("%d pokes pending, want 1", len(h.pending))
	}
	cp, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.pending) != 0 {
		t.Fatalf("Checkpoint left %d pokes queued", len(h.pending))
	}
	if want := fmt.Sprintf("%016x", ref.StateHash()); cp.StateHash != want || cp.Cycle != ref.Cycles() {
		t.Fatalf("checkpoint %s@%d, in-process %s@%d", cp.StateHash, cp.Cycle, want, ref.Cycles())
	}
	// The state hash leaves inputs out; stepping the blob shows the poke.
	snap, err := sim.DecodeSnapshot(cp.State)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(ref.Program())
	if err := eng.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
	ref.Run(1)
	if got, want := eng.StateHash(), ref.StateHash(); got != want {
		t.Fatalf("checkpoint stepped once: %016x, in-process %016x — queued poke missing", got, want)
	}
}

// TestPokeCapRejectedRun: a Run the cycle cap rejects still applies the
// pokes it carried, exactly like the poke requests that preceded a
// rejected step used to, and the handle drops them.
func TestPokeCapRejectedRun(t *testing.T) {
	_, _, h, ref := pokeSetup(t, Config{})
	pokeBoth(t, h, ref, 1)
	if _, err := h.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	pokeBoth(t, h, ref, 0x77)
	if _, err := h.Run(maxRunCycles + 1); StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("over-cap run: err = %v, want HTTP 400", err)
	}
	if len(h.pending) != 0 {
		t.Fatalf("cap-rejected Run left %d pokes queued", len(h.pending))
	}
	if _, err := h.Run(2); err != nil {
		t.Fatal(err)
	}
	ref.Run(2)
	sameOutputs(t, h, ref, "after the rejected run")
}

// TestPokeRunOnClosedSession: a Run carrying pokes to a session that is
// gone answers 404 and drops the queue.
func TestPokeRunOnClosedSession(t *testing.T) {
	srv, _, h, ref := pokeSetup(t, Config{})
	pokeBoth(t, h, ref, 1)
	pokeBoth(t, h, ref, 2)
	if _, err := srv.Sessions().Close(h.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(1); StatusOf(err) != http.StatusNotFound {
		t.Fatalf("run on a closed session: err = %v, want HTTP 404", err)
	}
	if len(h.pending) != 0 {
		t.Fatalf("404 left %d pokes queued", len(h.pending))
	}
}

// TestPokeNotSentByCloseOrVCD: queued pokes cannot change a fetched
// waveform or a close result, so VCD leaves them queued for the next Run
// and Close drops them unsent.
func TestPokeNotSentByCloseOrVCD(t *testing.T) {
	_, _, h, ref := pokeSetup(t, Config{})
	if err := h.StartVCD(); err != nil {
		t.Fatal(err)
	}
	pokeBoth(t, h, ref, 1)
	pokeBoth(t, h, ref, 0x33)
	if _, err := h.VCD(); err != nil {
		t.Fatal(err)
	}
	if len(h.pending) != 1 {
		t.Fatalf("VCD left %d pokes queued, want 1", len(h.pending))
	}
	if _, err := h.Run(2); err != nil {
		t.Fatal(err)
	}
	ref.Run(2)
	sameOutputs(t, h, ref, "run after a VCD fetch")
	pokeBoth(t, h, ref, 0x44)
	n, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(h.pending) != 0 {
		t.Fatalf("close: cycle %d with %d pokes queued, want 2 and 0", n, len(h.pending))
	}
}

// TestPokeKeptOn503: a Run the server sheds with 503 never ran, so its
// pokes stay queued and the retry carries them.
func TestPokeKeptOn503(t *testing.T) {
	srv, _, h, ref := pokeSetup(t, Config{})
	pokeBoth(t, h, ref, 1)
	pokeBoth(t, h, ref, 0x5a5a)
	srv.Sessions().draining.Store(true)
	if _, err := h.Run(1); StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: err = %v, want HTTP 503", err)
	}
	if len(h.pending) != 1 {
		t.Fatalf("503 left %d pokes queued, want 1", len(h.pending))
	}
	srv.Sessions().draining.Store(false)
	if _, err := h.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	sameOutputs(t, h, ref, "retried run")
}

// TestPeekRidesOnStep: once a handle has peeked an output, every Run names
// it and the step's answer carries its value, so a poke/Run(1)/Peek cycle is
// one HTTP request — on a private engine, a 2-thread program and a batch
// lane — and every value equals an in-process engine's.
func TestPeekRidesOnStep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads int
		lane    bool
	}{
		{"private", 1, false},
		{"2-thread", 2, false},
		{"lane", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := CompileRequest{Source: wireSrc, Threads: tc.threads, Seed: 1}
			cfg := Config{}
			if tc.lane {
				cfg.BatchLanes = MinLaneGroup
			}
			srv, client, requests := newCountingServer(t, cfg)
			cr, err := client.Compile(req)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lane {
				openCoTenants(t, client, cr.Key)
			}
			h, err := client.NewSession(cr.Key)
			if err != nil {
				t.Fatal(err)
			}
			if h.Batched != tc.lane {
				t.Fatalf("session batched = %v, want %v", h.Batched, tc.lane)
			}
			ref := wireRef(t, req)

			// Warm-up: the first poke of "in" and the first peek of each
			// output ask the server.
			pokeBoth(t, h, ref, 1)
			if _, err := h.Run(1); err != nil {
				t.Fatal(err)
			}
			ref.Run(1)
			sameOutputs(t, h, ref, "warm-up")

			const cycles = 50
			for i := 0; i < cycles; i++ {
				before := requests.Load()
				pokeBoth(t, h, ref, uint64(i*7919+3))
				if _, err := h.Run(1); err != nil {
					t.Fatal(err)
				}
				ref.Run(1)
				sameOutputs(t, h, ref, fmt.Sprintf("cycle %d", i))
				if n := requests.Load() - before; n != 1 {
					t.Fatalf("cycle %d: poke/Run(1)/Peek×2 made %d requests, want 1", i, n)
				}
			}
			if got := srv.Metrics().Sim.StepsWithOutputs; got != cycles {
				t.Fatalf("steps_with_outputs = %d, want %d", got, cycles)
			}
		})
	}
}

// wideSrc has an output wider than 64 bits next to a narrow one; both read
// a register that follows the input, so a poke shows after two steps.
const wideSrc = `
circuit WideOut {
  module WideOut {
    input  in : UInt<16>
    output w  : UInt<100>
    output n  : UInt<16>
    reg r : UInt<16> init 0
    r <= in
    w <= pad(r, 100)
    n <= r
  }
}
`

// TestPeekListRejected: a step whose peek list names an unknown or wide
// output, names one twice, or names more outputs than the program has
// answers 400 before anything happens: the cycle stays where it was and the
// pokes the step carried are not applied.
func TestPeekListRejected(t *testing.T) {
	_, client, h, ref := pokeSetup(t, Config{})
	pokeBoth(t, h, ref, 3)
	for _, tc := range []struct {
		peek []string
		why  string // in the error text
	}{
		{[]string{"nope"}, `no output "nope"`},
		{[]string{"outA", "outA"}, `"outA" twice`},
		{[]string{"outA", "outB", "outA"}, "the program has 2"},
	} {
		req := StepRequest{Cycles: 1, Pokes: []PokeRequest{{Name: "in", Value: 0x4242}}, Peek: tc.peek}
		err := client.do(http.MethodPost, h.path("run"), req, nil)
		if StatusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("peek %q: err = %v, want HTTP 400 naming %s", tc.peek, err, tc.why)
		}
		// Two more steps (an output shows a poke one step late) equal the
		// reference's, which saw neither the poke nor a cycle.
		n, err := h.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(2)
		if n != ref.Cycles() {
			t.Fatalf("peek %q: session at cycle %d, reference %d", tc.peek, n, ref.Cycles())
		}
		sameOutputs(t, h, ref, fmt.Sprintf("steps after a rejected peek %q", tc.peek))
	}

	cr, err := client.Compile(CompileRequest{Source: wideSrc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Poke("in", 5); err != nil {
		t.Fatal(err)
	}
	req := StepRequest{Cycles: 1, Pokes: []PokeRequest{{Name: "in", Value: 9}}, Peek: []string{"w"}}
	if err := client.do(http.MethodPost, w.path("run"), req, nil); StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("peek of a wide output: err = %v, want HTTP 400", err)
	}
	n, err := w.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Peek("n")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || v != 5 {
		t.Fatalf("after a rejected wide peek, two steps read n = %d at cycle %d; want 5 at cycle 2", v, n)
	}
}

// TestPeekCarriedCleared: a Run the cycle cap rejects and a Run shed with
// 503 drop the handle's carried outputs, so the next Peek asks the server;
// after Close a Peek answers 404, never a stale carried value.
func TestPeekCarriedCleared(t *testing.T) {
	srv, _, h, ref := pokeSetup(t, Config{})
	carry := func(when string) {
		t.Helper()
		if _, err := h.Run(1); err != nil {
			t.Fatal(err)
		}
		ref.Run(1)
		sameOutputs(t, h, ref, when)
	}
	pokeBoth(t, h, ref, 7)
	carry("first peek")
	carry("first carried peek")
	if len(h.carried) != 2 {
		t.Fatalf("Run carried %d outputs, want 2", len(h.carried))
	}

	if _, err := h.Run(maxRunCycles + 1); StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("over-cap run: err = %v, want HTTP 400", err)
	}
	if h.carried != nil {
		t.Fatal("cap-rejected Run kept the carried outputs")
	}
	sameOutputs(t, h, ref, "after a cap-rejected run")

	carry("carried again")
	srv.Sessions().draining.Store(true)
	if _, err := h.Run(1); StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: err = %v, want HTTP 503", err)
	}
	if h.carried != nil {
		t.Fatal("Run answered 503 kept the carried outputs")
	}
	srv.Sessions().draining.Store(false)
	sameOutputs(t, h, ref, "after a shed run")

	carry("before close")
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if v, err := h.Peek("outA"); StatusOf(err) != http.StatusNotFound {
		t.Fatalf("Peek after Close: %#x, err = %v; want HTTP 404", v, err)
	}
}
