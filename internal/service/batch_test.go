package service

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	repcut "repro"
	"repro/internal/sim"
)

// wireRef compiles wireSrc offline with the same options the server uses,
// giving a private reference simulator to compare batched sessions against.
func wireRef(t *testing.T, req CompileRequest) *repcut.Simulator {
	t.Helper()
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
	return ref
}

// TestBatchCoalescing proves the transparent-tier contract: sessions over
// the same program land on batch lanes, groups overflow into new groups at
// lane-width, and every lane's outputs are bit-identical to a private
// reference engine driven with that lane's own input trace.
func TestBatchCoalescing(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, Config{Workers: 2, BatchLanes: 4})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)

	const nSess = 6 // 4-lane width → one full group + one partial
	sessions := make([]*SessionHandle, nSess)
	refs := make([]*repcut.Simulator, nSess)
	for i := range sessions {
		sessions[i], err = client.NewSession(cr.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !sessions[i].Batched {
			t.Fatalf("session %d not batched", i)
		}
		refs[i] = wireRef(t, req)
	}
	if groups, occ, cap := srv.Sessions().BatchStats(); groups != 2 || occ != 6 || cap != 8 {
		t.Fatalf("BatchStats = (%d groups, %d occupied, %d capacity), want (2, 6, 8)", groups, occ, cap)
	}

	// Distinct per-session traces with distinct step sizes, so the group
	// frontier must handle lanes at different cycle counts.
	for round := 0; round < 5; round++ {
		for i, sess := range sessions {
			rng := rand.New(rand.NewSource(int64(i)*977 + int64(round)))
			v := rng.Uint64() & 0xffff
			if err := sess.Poke(in, v); err != nil {
				t.Fatal(err)
			}
			if err := refs[i].PokeInput(in, v); err != nil {
				t.Fatal(err)
			}
			n := 1 + (i+round)%3
			if _, err := sess.Run(n); err != nil {
				t.Fatal(err)
			}
			refs[i].Run(n)
		}
		for i, sess := range sessions {
			for _, out := range []string{"outA", "outB"} {
				got, err := sess.Peek(out)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refs[i].PeekOutput(out)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("round %d session %d %s = %#x, want %#x", round, i, out, got, want)
				}
			}
		}
	}

	// Closing every occupant of a group must drop it from the pool.
	for _, sess := range sessions {
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if groups, occ, _ := srv.Sessions().BatchStats(); groups != 0 || occ != 0 {
		t.Fatalf("BatchStats after close = (%d groups, %d occupied), want (0, 0)", groups, occ)
	}
}

// TestBatchConcurrentFrontier drives one group from many goroutines at
// once — the combining-leader protocol under real contention, with each
// lane's trace checked against a private reference. Run with -race.
func TestBatchConcurrentFrontier(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	_, client := newTestServer(t, Config{Workers: 2, BatchLanes: 8})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)

	const nSess = 8
	var wg sync.WaitGroup
	errc := make(chan error, nSess)
	for i := 0; i < nSess; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := client.NewSession(cr.Key)
			if err != nil {
				errc <- err
				return
			}
			defer sess.Close()
			ref := wireRef(t, req)
			rng := rand.New(rand.NewSource(int64(i) * 7919))
			for step := 0; step < 30; step++ {
				v := rng.Uint64() & 0xffff
				if err := sess.Poke(in, v); err != nil {
					errc <- err
					return
				}
				if err := ref.PokeInput(in, v); err != nil {
					errc <- err
					return
				}
				n := 1 + rng.Intn(4)
				if _, err := sess.Run(n); err != nil {
					errc <- err
					return
				}
				ref.Run(n)
				got, err := sess.Peek("outA")
				if err != nil {
					errc <- err
					return
				}
				want, err := ref.PeekOutput("outA")
				if err != nil {
					errc <- err
					return
				}
				if got != want {
					t.Errorf("session %d step %d outA = %#x, want %#x", i, step, got, want)
					return
				}
			}
			errc <- nil
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchHotDesignOccupancy is the coalescing gate: when every client
// steps the same design in long runs, the group-commit linger must put
// several sessions into each engine round. An occupancy under 0.3 of a
// 16-lane group means rounds degenerated to near one lane each and the
// batched tier is paying lane-width cost for solo work.
func TestBatchHotDesignOccupancy(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2, BatchLanes: 16})
	cr, err := client.Compile(CompileRequest{Design: "RocketChip-1C", Scale: 0.5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	const nSess, steps, cyclesPerStep = 16, 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < nSess; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := client.NewSession(cr.Key)
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for step := 0; step < steps; step++ {
				if _, err := sess.Run(cyclesPerStep); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if b := m.Batch; b.OccupancyRatio < 0.3 {
		t.Errorf("lane occupancy %.3f below 0.3 (%d runs, %.2f lanes/run of %d)",
			b.OccupancyRatio, b.Runs, b.MeanLanesPerRun, b.LaneWidth)
	}
}

// TestBatchLaneRecycling closes a batched session and reopens one: the
// newcomer must land on the recycled lane with power-on state, not the
// previous occupant's residue.
func TestBatchLaneRecycling(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, Config{Workers: 2, BatchLanes: 2})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)

	s1, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty s1's lane, then vacate it. s2 keeps the group alive.
	if err := s1.Poke(in, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(9); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Batched {
		t.Fatal("recycled session not batched")
	}
	if groups, occ, cap := srv.Sessions().BatchStats(); groups != 1 || occ != 2 || cap != 2 {
		t.Fatalf("BatchStats = (%d, %d, %d), want (1, 2, 2) — lane not recycled", groups, occ, cap)
	}
	// The recycled lane must behave exactly like a fresh engine.
	ref := wireRef(t, req)
	for step := 0; step < 6; step++ {
		v := uint64(step * 311)
		if err := s3.Poke(in, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput(in, v); err != nil {
			t.Fatal(err)
		}
		if _, err := s3.Run(1); err != nil {
			t.Fatal(err)
		}
		ref.Run(1)
		got, err := s3.Peek("outB")
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PeekOutput("outB")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d outB = %#x, want %#x — stale lane state", step, got, want)
		}
	}
	if _, err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSpillOnVCD starts waveform capture on a batched session: it
// must migrate to a private engine mid-flight with its lane state intact,
// free the lane, and produce a well-formed VCD. The group keeps serving
// its other occupant throughout.
func TestBatchSpillOnVCD(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, Config{Workers: 2, BatchLanes: 4})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)

	spill, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	stay, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	ref := wireRef(t, req)

	// Advance the soon-to-spill session so the migration carries real state.
	for step := 0; step < 4; step++ {
		v := uint64(0x1000 + step)
		if err := spill.Poke(in, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput(in, v); err != nil {
			t.Fatal(err)
		}
		if _, err := spill.Run(1); err != nil {
			t.Fatal(err)
		}
		ref.Run(1)
	}

	// GET before POST is an error.
	if _, err := spill.VCD(); err == nil {
		t.Fatal("VCD fetch before capture started should fail")
	}
	if err := spill.StartVCD(); err != nil {
		t.Fatal(err)
	}
	if groups, occ, _ := srv.Sessions().BatchStats(); groups != 1 || occ != 1 {
		t.Fatalf("BatchStats after spill = (%d, %d), want (1, 1) — lane not freed", groups, occ)
	}

	// The spilled session continues from its exact pre-spill state.
	for step := 0; step < 5; step++ {
		v := uint64(0x2000 + step)
		if err := spill.Poke(in, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput(in, v); err != nil {
			t.Fatal(err)
		}
		if _, err := spill.Run(1); err != nil {
			t.Fatal(err)
		}
		ref.Run(1)
		got, err := spill.Peek("outA")
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PeekOutput("outA")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("post-spill step %d outA = %#x, want %#x — state lost in migration", step, got, want)
		}
	}
	// The remaining occupant still batches fine.
	if _, err := stay.Run(3); err != nil {
		t.Fatal(err)
	}

	dump, err := spill.VCD()
	if err != nil {
		t.Fatal(err)
	}
	text := string(dump)
	for _, want := range []string{"$enddefinitions", "$var wire", "#"} {
		if !strings.Contains(text, want) {
			t.Fatalf("VCD dump missing %q:\n%.300s", want, text)
		}
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Batch.SessionsSpilled != 1 {
		t.Errorf("sessions_spilled = %d, want 1", m.Batch.SessionsSpilled)
	}
}

// TestBatchSoloAndMetrics checks the solo escape hatch and the /metrics
// batch section end to end.
func TestBatchSoloAndMetrics(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	_, client := newTestServer(t, Config{Workers: 2, BatchLanes: 4})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}

	solo, err := client.NewSoloSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Batched {
		t.Fatal("solo session reported batched")
	}
	b1, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}

	// Raise both lanes' targets before any leader can finish, then step:
	// at least one run must carry more than one lane eventually; at
	// minimum the counters must add up.
	for i := 0; i < 10; i++ {
		if _, err := b1.Run(2); err != nil {
			t.Fatal(err)
		}
		if _, err := b2.Run(2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := solo.Run(5); err != nil {
		t.Fatal(err)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	b := m.Batch
	if b.LaneWidth != 4 {
		t.Errorf("lane_width = %d, want 4", b.LaneWidth)
	}
	if b.SessionsSolo != 1 || b.SessionsBatched != 2 {
		t.Errorf("sessions solo/batched = %d/%d, want 1/2", b.SessionsSolo, b.SessionsBatched)
	}
	if b.Groups != 1 || b.LanesOccupied != 2 || b.LaneCapacity != 4 {
		t.Errorf("gauges = (%d, %d, %d), want (1, 2, 4)", b.Groups, b.LanesOccupied, b.LaneCapacity)
	}
	if b.Runs <= 0 {
		t.Fatalf("runs = %d, want > 0", b.Runs)
	}
	if b.MeanLanesPerRun < 1 {
		t.Errorf("mean_lanes_per_run = %v, want >= 1", b.MeanLanesPerRun)
	}
	if b.OccupancyRatio <= 0 || b.OccupancyRatio > 1 {
		t.Errorf("occupancy_ratio = %v, want in (0, 1]", b.OccupancyRatio)
	}
	// 2 batched sessions × 10 rounds × 2 cycles each.
	if b.BatchedCycles != 40 {
		t.Errorf("batched_cycles = %d, want 40", b.BatchedCycles)
	}
	if b.BatchedCPS <= 0 {
		t.Errorf("batched_cycles_per_sec = %v, want > 0", b.BatchedCPS)
	}
}

// TestBatchDisabled pins the off switch: BatchLanes < 0 means every
// session gets a private engine.
func TestBatchDisabled(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2, BatchLanes: -1})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Batched {
		t.Fatal("session batched with batching disabled")
	}
	if _, err := sess.Run(3); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLanesClamped: a programmatic lane count above the engine's one
// column width must not silently disable batching (NewBatchEngine rejects
// it, and the pool would fall back to solo engines); defaults() clamps it.
func TestBatchLanesClamped(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 2, BatchLanes: 64})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Batched {
		t.Fatal("session not batched with BatchLanes above the column width")
	}
	if w := srv.Metrics().Batch.LaneWidth; w != sim.BatchWidth {
		t.Fatalf("lane_width = %d, want %d", w, sim.BatchWidth)
	}
}
