package service

import (
	"testing"
	"time"

	repcut "repro"
	"repro/internal/codegen"
)

// waitNative polls for the build-behind to publish the entry's kernel.
func waitNative(t *testing.T, e *Entry, timeout time.Duration) *codegen.Kernel {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if k := e.Native(); k != nil {
			return k
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("build-behind never published a native kernel")
	return nil
}

// TestCodegenHotSwapMatchesLinked is the service-tier correctness check:
// a solo session created while the native kernel is still building runs
// interpreted, hot-swaps onto the kernel mid-session, and must track a
// plain linked simulator cycle for cycle across the swap.
func TestCodegenHotSwapMatchesLinked(t *testing.T) {
	if err := codegen.Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	srv, _ := newTestServer(t, Config{Codegen: true, CodegenDir: t.TempDir()})

	e, _, err := srv.Cache().GetOrCompile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Sessions().Create(e, true) // solo: private engine
	if err != nil {
		t.Fatal(err)
	}
	ref := e.Compiled.NewSimulator()

	step := func(cyc int) {
		v := uint64(cyc*7 + 1)
		if err := srv.Sessions().Do(sess.ID, func(s *Session) error {
			if err := s.Poke("in", v); err != nil {
				return err
			}
			s.Run(1)
			return nil
		}); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if err := ref.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
		ref.Run(1)
		var got uint64
		if err := srv.Sessions().Do(sess.ID, func(s *Session) error {
			var e2 error
			got, e2 = s.PeekOutput("outA")
			return e2
		}); err != nil {
			t.Fatal(err)
		}
		want, err := ref.PeekOutput("outA")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cycle %d: outA = %d, linked reference %d", cyc, got, want)
		}
	}

	// Phase 1: likely interpreted (the build-behind races ahead of us, and
	// either way the output must match).
	for cyc := 0; cyc < 20; cyc++ {
		step(cyc)
	}
	// Phase 2: definitely native after the swap lands on the next op.
	waitNative(t, e, 3*time.Minute)
	for cyc := 20; cyc < 60; cyc++ {
		step(cyc)
	}
	if b := sess.privateSim().Backend; b != repcut.BackendNative {
		t.Fatalf("session backend = %v after kernel ready, want native", b)
	}

	snap := srv.Metrics()
	if !snap.Codegen.Enabled {
		t.Fatal("codegen metrics report the tier disabled")
	}
	if snap.Codegen.SessionsHotSwapped < 1 {
		t.Fatalf("sessions_hot_swapped = %d, want >= 1", snap.Codegen.SessionsHotSwapped)
	}
	if snap.Codegen.ArtifactHits+snap.Codegen.ArtifactMisses < 1 {
		t.Fatal("codegen metrics recorded no artifact traffic")
	}
	if snap.Codegen.BuildErrors != 0 {
		t.Fatalf("build_errors = %d, want 0", snap.Codegen.BuildErrors)
	}

	// A batched session never swaps (the batch engine has no native path)
	// but keeps serving correctly alongside the native solo session. The
	// explicit solo session is no co-tenant, so the MinLaneGroup-th
	// default-placement session is the first one batched.
	var bsess *Session
	for i := 0; i < MinLaneGroup; i++ {
		if bsess, err = srv.Sessions().Create(e, false); err != nil {
			t.Fatal(err)
		}
	}
	if !bsess.Batched() {
		t.Fatal("session past the break-even not batched")
	}
	if err := srv.Sessions().Do(bsess.ID, func(s *Session) error {
		if err := s.Poke("in", 5); err != nil {
			return err
		}
		s.Run(3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bsess.privateSim() != nil {
		t.Fatal("batched session grew a private engine")
	}
}

// TestCodegenDisabledReason: a server asked for codegen on a platform
// without plugin support must degrade gracefully and say why.
func TestCodegenDisabledReason(t *testing.T) {
	if err := codegen.Supported(); err == nil {
		t.Skip("plugins supported here; disabled-reason path not reachable")
	}
	srv, _ := newTestServer(t, Config{Codegen: true, CodegenDir: t.TempDir()})
	snap := srv.Metrics()
	if snap.Codegen.Enabled {
		t.Fatal("tier enabled despite unsupported platform")
	}
	if snap.Codegen.Reason == "" {
		t.Fatal("no disabled reason recorded")
	}
}
