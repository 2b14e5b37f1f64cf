package service

import (
	"fmt"
	"net/http"
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
// next Run.
func TestPokeCarriedInOrder(t *testing.T) {
	_, client, h, ref := pokeSetup(t, Config{Workers: 2})

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
	sameOutputs(t, h, ref, "raw step with two pokes")

	// The handle: first poke at once, later ones queued in order.
	pokeBoth(t, h, ref, 3)
	if len(h.pending) != 0 {
		t.Fatalf("first poke of a name queued (%d pending)", len(h.pending))
	}
	for _, v := range []uint64{0, 5, 0x8001} {
		pokeBoth(t, h, ref, v)
	}
	if len(h.pending) != 3 {
		t.Fatalf("%d pokes pending, want 3", len(h.pending))
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
	// Peek sends the queue through /poke before reading.
	if _, err := h.Peek("outA"); err != nil {
		t.Fatal(err)
	}
	if len(h.pending) != 0 {
		t.Fatalf("Peek left %d pokes queued", len(h.pending))
	}
	if _, err := h.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	sameOutputs(t, h, ref, "step after a flushing peek")
}

// TestPokeQueuedCheckpoint: a checkpoint taken with a poke still queued
// sends it first, so the checkpoint equals one of an in-process engine
// poked directly — the same state_hash, and a blob that steps to the same
// state as that engine does.
func TestPokeQueuedCheckpoint(t *testing.T) {
	_, _, h, ref := pokeSetup(t, Config{Workers: 2})
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
	_, _, h, ref := pokeSetup(t, Config{Workers: 2, MaxRunCycles: 100})
	pokeBoth(t, h, ref, 1)
	if _, err := h.Run(1); err != nil {
		t.Fatal(err)
	}
	ref.Run(1)
	pokeBoth(t, h, ref, 0x77)
	if _, err := h.Run(101); StatusOf(err) != http.StatusBadRequest {
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
	srv, _, h, ref := pokeSetup(t, Config{Workers: 2})
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
	_, _, h, ref := pokeSetup(t, Config{Workers: 2})
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
	srv, _, h, ref := pokeSetup(t, Config{Workers: 2})
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
