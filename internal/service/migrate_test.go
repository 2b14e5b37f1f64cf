package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestCheckpointRestoreRoundTrip: checkpoint a session, restore the blob
// into a fresh session on the same server, and verify the copy is at the
// same cycle with the same state hash. Co-tenants put both on batch lanes,
// so the checkpoint is taken from a lane and restored into one.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	_, client := newTestServer(t, Config{BatchLanes: MinLaneGroup})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	openCoTenants(t, client, cr.Key)
	s, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Batched {
		t.Fatal("session past the break-even not batched")
	}
	if err := s.Poke("in", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle != 5 || len(cp.State) == 0 || cp.StateHash == "" {
		t.Fatalf("bad checkpoint: %+v", cp)
	}
	restored, err := client.RestoreSession(cr.Key, cp.State, false)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Batched {
		t.Fatal("restore past the break-even not batched")
	}
	cp2, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Cycle != cp.Cycle || cp2.StateHash != cp.StateHash {
		t.Fatalf("restored session diverges: %s@%d, want %s@%d",
			cp2.StateHash, cp2.Cycle, cp.StateHash, cp.Cycle)
	}
	// Both copies see the same future.
	for _, h := range []*SessionHandle{s, restored} {
		if err := h.Poke("in", 3); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(4); err != nil {
			t.Fatal(err)
		}
	}
	a, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if a.StateHash != b.StateHash {
		t.Fatalf("copies diverged after identical stimulus: %s vs %s", a.StateHash, b.StateHash)
	}
}

// TestRestoreVersion1Conflict: a checkpoint blob written by an older
// snapshot format (version 1, or version 2, the last before frames) is a
// conflict with this server's layout (HTTP 409), like a fingerprint
// mismatch, not a malformed request.
func TestRestoreVersion1Conflict(t *testing.T) {
	_, client := newTestServer(t, Config{})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"1", "2"} {
		blob, err := os.ReadFile("../sim/testdata/snapshot-v" + v + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.RestoreSession(cr.Key, blob, false); StatusOf(err) != http.StatusConflict {
			t.Fatalf("restore of a version-%s blob: %v, want HTTP 409", v, err)
		}
	}
}

// TestClientFollowsMigration: a server that has migrated a session away
// answers with 503 + Retry-After + the peer address, and the client-side
// session handle follows the forwarding address transparently.
func TestClientFollowsMigration(t *testing.T) {
	srvA, clientA := newTestServer(t, Config{})
	_, clientB := newTestServer(t, Config{})

	cr, err := clientB.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	real, err := clientB.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	// A pretends it once held the session and migrated it to B. The peer is
	// recorded host:port (as the cluster does); the client must add the
	// scheme itself.
	const oldID = "s0000dead"
	peer := strings.TrimPrefix(clientB.BaseURL, "http://")
	srvA.Sessions().MarkMigrated(oldID, peer, real.ID)

	// The raw protocol: 503, Retry-After, and a forwarding address.
	resp, err := http.Post(clientA.BaseURL+"/v1/sessions/"+oldID+"/run",
		"application/json", bytes.NewReader([]byte(`{"cycles":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("migrated session answered HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for a migrated session came without Retry-After")
	}
	if decodeErr != nil || er.Peer != peer || er.SessionID != real.ID {
		t.Fatalf("forwarding address wrong: %+v (decode err %v)", er, decodeErr)
	}

	// The client handle follows: one op against A lands on B.
	h := &SessionHandle{c: clientA, ID: oldID}
	n, err := h.Run(3)
	if err != nil {
		t.Fatalf("handle did not follow migration: %v", err)
	}
	if n != 3 {
		t.Fatalf("followed run returned cycle %d, want 3", n)
	}
	if h.ID != real.ID {
		t.Fatalf("handle ID is %s after follow, want %s", h.ID, real.ID)
	}
	// Subsequent ops go straight to B.
	if _, err := h.Run(2); err != nil {
		t.Fatal(err)
	}
	cp, err := real.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle != 5 {
		t.Fatalf("session on B at cycle %d, want 5", cp.Cycle)
	}
	// Closing through the old address follows too.
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationFollowCarriesQueuedPoke: a poke queued on the handle while
// its session migrates rides on the Run that follows the forwarding
// address, so it is applied on the peer exactly once, and the peer answers
// that Run with the outputs the handle watches.
func TestMigrationFollowCarriesQueuedPoke(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srvA, clientA := newTestServer(t, Config{})
	srvB, clientB := newTestServer(t, Config{})
	cr, err := clientA.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientB.Compile(req); err != nil {
		t.Fatal(err)
	}
	ref := wireRef(t, req)

	h, err := clientA.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	oldID := h.ID
	pokeBoth(t, h, ref, 7)
	if _, err := h.Run(2); err != nil {
		t.Fatal(err)
	}
	ref.Run(2)
	sameOutputs(t, h, ref, "before the move") // the handle now watches both outputs
	pokeBoth(t, h, ref, 9)
	if len(h.pending) != 1 {
		t.Fatalf("%d pokes pending, want 1", len(h.pending))
	}

	// Move the session to B behind the handle's back, as a drain does:
	// checkpoint through a second handle (so the queue stays put), restore
	// on B, close on A and leave the forwarding address.
	cp, err := (&SessionHandle{c: clientA, ID: oldID}).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := clientB.RestoreSession(cr.Key, cp.State, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Sessions().Close(oldID); err != nil {
		t.Fatal(err)
	}
	srvA.Sessions().MarkMigrated(oldID, strings.TrimPrefix(clientB.BaseURL, "http://"), moved.ID)

	n, err := h.Run(3)
	if err != nil {
		t.Fatalf("handle did not follow migration: %v", err)
	}
	ref.Run(3)
	if h.ID != moved.ID || n != 5 {
		t.Fatalf("followed run: %s@%d, want %s@5", h.ID, n, moved.ID)
	}
	if len(h.pending) != 0 {
		t.Fatalf("followed Run left %d pokes queued", len(h.pending))
	}
	if len(h.carried) != 2 || srvB.Metrics().Sim.StepsWithOutputs != 1 {
		t.Fatalf("followed Run carried %d outputs (peer steps_with_outputs %d), want 2 (1)",
			len(h.carried), srvB.Metrics().Sim.StepsWithOutputs)
	}
	sameOutputs(t, h, ref, "after the followed run")
}
