package service

import (
	"fmt"
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
	ref, err := d.CompileParallel(req.Options())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// openCoTenants opens the MinLaneGroup-1 default-placement sessions a
// program needs before its next session is batched, and checks that each of
// them got a private engine. They stay open until the server shuts down.
func openCoTenants(t *testing.T, client *Client, key string) {
	t.Helper()
	for i := 1; i < MinLaneGroup; i++ {
		h, err := client.NewSession(key)
		if err != nil {
			t.Fatal(err)
		}
		if h.Batched {
			t.Fatalf("co-tenant %d batched below the break-even", i)
		}
	}
}

// TestBatchCoalescing proves the transparent-tier contract: sessions over
// the same program land on batch lanes once the program has reached the
// break-even, groups overflow into new groups at lane-width, and every
// lane's outputs are bit-identical to a private reference engine driven
// with that lane's own input trace.
func TestBatchCoalescing(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, Config{BatchLanes: 5})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)
	openCoTenants(t, client, cr.Key)

	const nSess = 6 // 5-lane width → one full group + one partial
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
	if groups, occ, cap := srv.Sessions().BatchStats(); groups != 2 || occ != 6 || cap != 10 {
		t.Fatalf("BatchStats = (%d groups, %d occupied, %d capacity), want (2, 6, 10)", groups, occ, cap)
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
// lane's trace checked against a private reference. The first
// MinLaneGroup-1 sessions run private engines; the other eight fill one
// group. Run with -race.
func TestBatchConcurrentFrontier(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	_, client := newTestServer(t, Config{BatchLanes: 8})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)

	const nSess = MinLaneGroup - 1 + 8
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
// several sessions into each engine round. The first MinLaneGroup-1 of the
// sixteen run private engines, so at most twelve lanes are occupied; an
// occupancy under 0.3 of the 16-lane group means rounds degenerated to near
// one lane each and the batched tier is paying lane-width cost for solo
// work.
func TestBatchHotDesignOccupancy(t *testing.T) {
	_, client := newTestServer(t, Config{BatchLanes: 16})
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

// laneOf reports the batch lane a session occupies (-1 when it is not
// batched).
func laneOf(t *testing.T, srv *Server, id string) int {
	t.Helper()
	lane := -1
	if err := srv.Sessions().Do(id, func(s *Session) error {
		if l := s.laneHandle(); l != nil {
			lane = l.lane
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lane
}

// TestBatchLaneRecycling closes a batched session and reopens one: the
// newcomer must land on the recycled lane with power-on state, not the
// previous occupant's residue.
func TestBatchLaneRecycling(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	srv, client := newTestServer(t, Config{BatchLanes: 5})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)
	openCoTenants(t, client, cr.Key)

	s1, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	lane1 := laneOf(t, srv, s1.ID)
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
	if groups, occ, cap := srv.Sessions().BatchStats(); groups != 1 || occ != 2 || cap != 5 {
		t.Fatalf("BatchStats = (%d, %d, %d), want (1, 2, 5)", groups, occ, cap)
	}
	if lane3 := laneOf(t, srv, s3.ID); lane3 != lane1 {
		t.Fatalf("newcomer on lane %d, want the vacated lane %d — lane not recycled", lane3, lane1)
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
	srv, client := newTestServer(t, Config{BatchLanes: 5})

	cr, err := client.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	in := firstNarrow(cr.Inputs)
	openCoTenants(t, client, cr.Key)

	spill, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	stay, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !spill.Batched || !stay.Batched {
		t.Fatal("sessions past the break-even not batched")
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

// TestVCDTimestampsOnce: a capture started at cycle C and stepped by three
// Run(1) calls holds each timestamp #C…#C+3 exactly once, in increasing
// order — on a private session and on one that spilled off its lane.
func TestVCDTimestampsOnce(t *testing.T) {
	_, client := newTestServer(t, Config{BatchLanes: 5})
	cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := client.NewSoloSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	openCoTenants(t, client, cr.Key)
	laned, err := client.NewSession(cr.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !laned.Batched {
		t.Fatal("session past the break-even not batched")
	}
	for _, sess := range []*SessionHandle{solo, laned} {
		start, err := sess.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.StartVCD(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Run(1); err != nil {
				t.Fatal(err)
			}
		}
		dump, err := sess.VCD()
		if err != nil {
			t.Fatal(err)
		}
		var stamps []string
		for _, line := range strings.Split(string(dump), "\n") {
			if strings.HasPrefix(line, "#") {
				stamps = append(stamps, line)
			}
		}
		var want []string
		for c := start; c <= start+3; c++ {
			want = append(want, fmt.Sprintf("#%d", c))
		}
		if strings.Join(stamps, " ") != strings.Join(want, " ") {
			t.Errorf("session %s: timestamps %v, want %v", sess.ID, stamps, want)
		}
	}
}

// TestBatchSoloAndMetrics checks the solo escape hatch and the /metrics
// batch section end to end. An explicit solo session is not a co-tenant:
// the MinLaneGroup-1 sessions after it are still below the break-even.
func TestBatchSoloAndMetrics(t *testing.T) {
	req := CompileRequest{Source: wireSrc, Threads: 2, Seed: 1}
	_, client := newTestServer(t, Config{BatchLanes: 5})

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
	openCoTenants(t, client, cr.Key)
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
	if b.LaneWidth != 5 {
		t.Errorf("lane_width = %d, want 5", b.LaneWidth)
	}
	if b.SessionsSolo != MinLaneGroup || b.SessionsBatched != 2 {
		t.Errorf("sessions solo/batched = %d/%d, want %d/2", b.SessionsSolo, b.SessionsBatched, MinLaneGroup)
	}
	if b.SessionsSoloBelowBreakEven != MinLaneGroup-1 {
		t.Errorf("sessions_solo_below_break_even = %d, want %d", b.SessionsSoloBelowBreakEven, MinLaneGroup-1)
	}
	if !b1.Batched || !b2.Batched {
		t.Error("sessions past the break-even not batched")
	}
	if b.Groups != 1 || b.LanesOccupied != 2 || b.LaneCapacity != 5 {
		t.Errorf("gauges = (%d, %d, %d), want (1, 2, 5)", b.Groups, b.LanesOccupied, b.LaneCapacity)
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
	_, client := newTestServer(t, Config{BatchLanes: -1})
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
// A count below the break-even describes a group that never pays, so
// defaults() turns batching off instead.
func TestBatchLanesClamped(t *testing.T) {
	for _, tc := range []struct {
		lanes, width int
		batched      bool
		// Batching off is its own reason for a private engine, not the
		// break-even.
		belowBreakEven int64
	}{
		{64, sim.BatchWidth, true, MinLaneGroup - 1},
		{MinLaneGroup - 1, 1, false, 0},
	} {
		srv, client := newTestServer(t, Config{BatchLanes: tc.lanes})
		cr, err := client.Compile(CompileRequest{Source: wireSrc, Threads: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		openCoTenants(t, client, cr.Key)
		sess, err := client.NewSession(cr.Key)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Batched != tc.batched {
			t.Fatalf("BatchLanes %d: session past the break-even batched = %t, want %t", tc.lanes, sess.Batched, tc.batched)
		}
		b := srv.Metrics().Batch
		if b.LaneWidth != tc.width {
			t.Fatalf("BatchLanes %d: lane_width = %d, want %d", tc.lanes, b.LaneWidth, tc.width)
		}
		if b.SessionsSoloBelowBreakEven != tc.belowBreakEven {
			t.Fatalf("BatchLanes %d: sessions_solo_below_break_even = %d, want %d", tc.lanes, b.SessionsSoloBelowBreakEven, tc.belowBreakEven)
		}
	}
}

// BenchmarkCoTenants measures lane batching end to end in process: n
// concurrent default-placement sessions of RocketChip-1C at one thread, each
// driven by its own client goroutine through the HTTP handler, with lanes on
// (the default BatchLanes) and off (BatchLanes 1, every session private).
// Bulk sessions run Run(4000) five times; lock-step sessions run one cycle
// and peek an output 200 times, one request per cycle (the bundled designs
// have no top-level input to poke, and a peek after the first rides on the
// step). It reports the aggregate simulated cycles per second of all n
// sessions.
//
//	go test -run '^$' -bench CoTenants -benchtime 1x -count 3 ./internal/service
func BenchmarkCoTenants(b *testing.B) {
	modes := []struct {
		name  string
		drive func(h *SessionHandle, out string) (cycles int, err error)
	}{
		{"bulk", func(h *SessionHandle, _ string) (int, error) {
			for range 5 {
				if _, err := h.Run(4000); err != nil {
					return 0, err
				}
			}
			return 5 * 4000, nil
		}},
		{"lockstep", func(h *SessionHandle, out string) (int, error) {
			for range 200 {
				if _, err := h.Run(1); err != nil {
					return 0, err
				}
				if _, err := h.Peek(out); err != nil {
					return 0, err
				}
			}
			return 200, nil
		}},
	}
	for _, mode := range modes {
		for _, tier := range []struct {
			name  string
			lanes int
		}{{"lanes", 0}, {"private", 1}} {
			for _, n := range []int{6, 16, 32} {
				b.Run(fmt.Sprintf("%s/%s/n%d", mode.name, tier.name, n), func(b *testing.B) {
					_, client := newTestServer(b, Config{BatchLanes: tier.lanes})
					cr, err := client.Compile(CompileRequest{Design: "RocketChip-1C", Threads: 1})
					if err != nil {
						b.Fatal(err)
					}
					out := firstNarrow(cr.Outputs)
					sessions := make([]*SessionHandle, n)
					for i := range sessions {
						if sessions[i], err = client.NewSession(cr.Key); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					var cycles int64
					for range b.N {
						var wg sync.WaitGroup
						errs := make([]error, n)
						done := make([]int, n)
						for i, h := range sessions {
							wg.Add(1)
							go func() {
								defer wg.Done()
								done[i], errs[i] = mode.drive(h, out)
							}()
						}
						wg.Wait()
						for i := range sessions {
							if errs[i] != nil {
								b.Fatal(errs[i])
							}
							cycles += int64(done[i])
						}
					}
					b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
				})
			}
		}
	}
}
