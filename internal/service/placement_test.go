package service

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPlacementBreakEven pins the placement rule: a program's first
// MinLaneGroup-1 default-placement sessions run private engines and the
// MinLaneGroup-th and later ones get lanes; placement is never revisited;
// closes and reaps end tenancies, so a lone session after them is solo
// again; a restore is a co-tenant like a create, a failed one counts
// nowhere, and explicit solo sessions are not co-tenants at all.
func TestPlacementBreakEven(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 2, IdleTimeout: time.Hour, ReapInterval: time.Hour})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var below int64 // expected sessions_solo_below_break_even
	open := func(what string, wantBatched bool) *SessionHandle {
		t.Helper()
		h, err := client.NewSession(cr.Key)
		if err != nil {
			t.Fatal(err)
		}
		if h.Batched != wantBatched {
			t.Fatalf("%s: batched = %t, want %t", what, h.Batched, wantBatched)
		}
		if !h.Batched {
			below++
		}
		return h
	}

	// Sessions 1..MinLaneGroup-1 are solo, the next two are batched.
	var first []*SessionHandle
	for i := 1; i <= MinLaneGroup+1; i++ {
		first = append(first, open("session", i >= MinLaneGroup))
	}
	solo, err := client.NewSoloSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Batched {
		t.Fatal("explicit solo session batched")
	}
	// Closing the solo sessions leaves the batched ones on their lanes.
	for _, h := range first[:MinLaneGroup-1] {
		if _, err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if groups, occ, _ := srv.Sessions().BatchStats(); groups != 1 || occ != 2 {
		t.Fatalf("BatchStats after closing the solo co-tenants = (%d, %d), want (1, 2)", groups, occ)
	}
	for _, h := range first[MinLaneGroup-1:] {
		if _, err := h.Run(3); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The explicit solo session is still live but counts for nothing.
	open("lone session after closes", false)
	for i := 2; i < MinLaneGroup; i++ {
		open("co-tenant after closes", false)
	}
	open("break-even session after closes", true)

	// Reaping ends every tenancy too.
	if n := srv.Sessions().Reap(time.Now().Add(2 * time.Hour)); n != MinLaneGroup+1 {
		t.Fatalf("reaped %d sessions, want %d", n, MinLaneGroup+1)
	}
	lone := open("lone session after reap", false)
	if groups, occ, _ := srv.Sessions().BatchStats(); groups != 0 || occ != 0 {
		t.Fatalf("BatchStats after reap = (%d, %d), want (0, 0)", groups, occ)
	}

	// Restores are co-tenants: with MinLaneGroup-2 live sessions a default
	// restore is solo and the next one is batched, carrying the snapshot's
	// exact state onto its lane. A solo restore counts for nothing.
	if _, err := lone.Run(7); err != nil {
		t.Fatal(err)
	}
	cp, err := lone.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < MinLaneGroup-1; i++ {
		open("co-tenant before restores", false)
	}
	restore := func(solo, wantBatched bool) {
		t.Helper()
		h, err := client.RestoreSession(cr.Key, cp.State, solo)
		if err != nil {
			t.Fatal(err)
		}
		if h.Batched != wantBatched {
			t.Fatalf("restore (solo %t): batched = %t, want %t", solo, h.Batched, wantBatched)
		}
		if !solo && !h.Batched {
			below++
		}
		got, err := h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycle != cp.Cycle || got.StateHash != cp.StateHash {
			t.Fatalf("restored session at %s@%d, want %s@%d", got.StateHash, got.Cycle, cp.StateHash, cp.Cycle)
		}
	}
	// A restore that fails ends its tenancy and counts nowhere, not even
	// below the break-even.
	e, ok := srv.Cache().Lookup(cr.Key)
	if !ok {
		t.Fatal("compiled key not cached")
	}
	if _, err := srv.Sessions().Restore(e, &sim.Snapshot{Fingerprint: e.Fingerprint}, false); err == nil {
		t.Fatal("restore of an empty snapshot succeeded")
	}
	restore(true, false)
	restore(false, false)
	restore(false, true)

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Batch.SessionsSoloBelowBreakEven != below {
		t.Errorf("sessions_solo_below_break_even = %d, want %d", m.Batch.SessionsSoloBelowBreakEven, below)
	}
	// Below-break-even engines, the explicit solo create and the solo restore.
	if want := below + 2; m.Batch.SessionsSolo != want {
		t.Errorf("sessions_solo = %d, want %d", m.Batch.SessionsSolo, want)
	}
	if m.Batch.SessionsBatched != 4 {
		t.Errorf("sessions_batched = %d, want 4", m.Batch.SessionsBatched)
	}
}
