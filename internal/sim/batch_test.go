package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/genckt"
)

// pokeBoth drives one cycle of random stimulus into every input of a batch
// lane and its twin private engine, so the two must stay bit-identical
// forever.
func pokeBoth(t *testing.T, be *BatchEngine, lane int, tw *Engine, rng *rand.Rand) {
	t.Helper()
	for _, in := range be.Program().Inputs {
		v := bitvec.New(in.Width)
		for j := range v.Words {
			v.Words[j] = rng.Uint64()
		}
		if err := be.PokeVec(lane, in.Name, v); err != nil {
			t.Fatal(err)
		}
		if err := tw.PokeInputVec(in.Name, v); err != nil {
			t.Fatal(err)
		}
	}
}

// compareLane checks a batch lane against its twin engine on every
// register, output, and memory word.
func compareLane(t *testing.T, be *BatchEngine, lane int, tw *Engine, tag string) {
	t.Helper()
	p := be.Program()
	for _, r := range p.Regs {
		bv, err := be.PeekReg(lane, r.Name)
		if err != nil {
			t.Fatalf("%s: batch peek reg %s: %v", tag, r.Name, err)
		}
		ev, err := tw.PeekReg(r.Name)
		if err != nil {
			t.Fatalf("%s: twin peek reg %s: %v", tag, r.Name, err)
		}
		if !bitvec.Eq(bv, ev) {
			t.Fatalf("%s: lane %d reg %s: batch %v, engine %v", tag, lane, r.Name, bv, ev)
		}
	}
	for _, o := range p.Outputs {
		bv, err := be.PeekVec(lane, o.Name)
		if err != nil {
			t.Fatalf("%s: batch peek out %s: %v", tag, o.Name, err)
		}
		ev, err := tw.PeekOutputVec(o.Name)
		if err != nil {
			t.Fatalf("%s: twin peek out %s: %v", tag, o.Name, err)
		}
		if !bitvec.Eq(bv, ev) {
			t.Fatalf("%s: lane %d out %s: batch %v, engine %v", tag, lane, o.Name, bv, ev)
		}
	}
	for _, mi := range p.Memories() {
		m := p.Mems[mi]
		for a := 0; a < m.Depth; a++ {
			bv, err := be.PeekMemVec(lane, m.Name, a)
			if err != nil {
				t.Fatalf("%s: batch peek mem %s[%d]: %v", tag, m.Name, a, err)
			}
			ev, err := tw.PeekMemVec(m.Name, a)
			if err != nil {
				t.Fatalf("%s: twin peek mem %s[%d]: %v", tag, m.Name, a, err)
			}
			if !bitvec.Eq(bv, ev) {
				t.Fatalf("%s: lane %d mem %s[%d]: batch %v, engine %v", tag, lane, m.Name, a, bv, ev)
			}
		}
	}
}

// genFuzzCircuit builds the fuzz generator's circuit for seed.
func genFuzzCircuit(t *testing.T, seed int64) *cgraph.Graph {
	t.Helper()
	d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 60}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph
}

// TestBatchMatchesEngine is the batch engine's correctness claim: N lanes
// driven with N distinct input streams must each stay bit-identical to a
// private Engine fed the same stream — serial and partitioned programs,
// including wide values and memories — for a single lane, a partial column
// (occupied plus padding lanes) and a full column. The circuits together
// must put every opcode but OpNop through the executor, so its table cannot
// grow an arm this test never runs.
func TestBatchMatchesEngine(t *testing.T) {
	type circuit struct {
		name  string
		seed  int64
		build func(*testing.T, int64) *cgraph.Graph
	}
	random := func(t *testing.T, seed int64) *cgraph.Graph { return randomCircuit(t, seed, 70) }
	var circuits []circuit
	// Seeds 55, 81 and 95 are there for the opcodes 50–53 never emit.
	for _, seed := range []int64{50, 51, 52, 53, 55, 81, 95} {
		circuits = append(circuits, circuit{fmt.Sprintf("seed%d", seed), seed, random})
	}
	// Wide-heavy fuzz-generator circuits.
	for _, seed := range []int64{3, 7} {
		circuits = append(circuits, circuit{fmt.Sprintf("genckt%d", seed), seed, genFuzzCircuit})
	}
	var ran [numOpCodes]int
	for _, lanes := range []int{1, 5, BatchWidth} {
		for _, c := range circuits {
			lanes, c := lanes, c
			t.Run(fmt.Sprintf("lanes%d/%s", lanes, c.name), func(t *testing.T) {
				g := c.build(t, c.seed)
				for _, k := range []int{1, 3} {
					specs := SerialSpec(g)
					if k > 1 {
						res, err := core.Partition(g, core.Options{
							K: k, Seed: c.seed, Model: costmodel.Default(), Epsilon: 0.1,
						})
						if err != nil {
							t.Fatalf("partition k=%d: %v", k, err)
						}
						specs = partSpecs(res)
					}
					prog, err := Compile(g, specs, Config{OptLevel: 2})
					if err != nil {
						t.Fatalf("compile k=%d: %v", k, err)
					}
					be, err := NewBatchEngine(prog, lanes)
					if err != nil {
						t.Fatal(err)
					}
					for _, th := range prog.Threads {
						for _, in := range th.Code {
							ran[in.Op]++
						}
					}
					twins := make([]*Engine, lanes)
					rngs := make([]*rand.Rand, lanes)
					for l := range twins {
						twins[l] = NewEngine(prog)
						rngs[l] = rand.New(rand.NewSource(c.seed*100 + int64(l)))
					}
					for cyc := 0; cyc < 12; cyc++ {
						for l := 0; l < lanes; l++ {
							pokeBoth(t, be, l, twins[l], rngs[l])
						}
						be.Run(1)
						for l := 0; l < lanes; l++ {
							twins[l].Run(1)
							compareLane(t, be, l, twins[l], fmt.Sprintf("k=%d cycle=%d", k, cyc))
						}
					}
				}
			})
		}
	}
	for op := OpNop + 1; op < numOpCodes; op++ {
		if ran[op] == 0 {
			t.Errorf("no circuit of this test runs %v through the batch executor", op)
		}
	}
}

// TestBatchMaskedStepping holds lanes at different cycle frontiers — the
// service's per-group frontier protocol — and checks that masked-out lanes
// are bit-for-bit untouched while stepped lanes advance exactly like a
// private engine.
func TestBatchMaskedStepping(t *testing.T) {
	const lanes = 4
	g := randomCircuit(t, 61, 70)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBatchEngine(prog, lanes)
	if err != nil {
		t.Fatal(err)
	}
	twins := make([]*Engine, lanes)
	for l := range twins {
		twins[l] = NewEngine(prog)
	}
	rng := rand.New(rand.NewSource(77))
	// Fixed per-lane stimulus so held lanes see stable inputs.
	for l := 0; l < lanes; l++ {
		pokeBoth(t, be, l, twins[l], rng)
	}
	// An uneven schedule: each row is (mask, cycles).
	schedule := []struct {
		mask []bool
		n    int
	}{
		{[]bool{true, true, true, true}, 2},
		{[]bool{true, false, true, false}, 3},
		{[]bool{false, true, false, false}, 1},
		{[]bool{true, true, false, true}, 2},
		{[]bool{false, false, false, false}, 5}, // no-op
		{[]bool{true, true, true, true}, 1},
	}
	want := make([]uint64, lanes)
	for _, s := range schedule {
		be.RunMasked(s.n, s.mask)
		for l := 0; l < lanes; l++ {
			if s.mask[l] {
				twins[l].Run(s.n)
				want[l] += uint64(s.n)
			}
		}
	}
	for l := 0; l < lanes; l++ {
		if be.Cycles(l) != want[l] {
			t.Fatalf("lane %d at cycle %d, want %d", l, be.Cycles(l), want[l])
		}
		compareLane(t, be, l, twins[l], "frontier")
	}
}

// TestBatchResetLane is the lane-recycling contract: resetting one lane
// restores power-on state (register inits included) without disturbing its
// neighbours.
func TestBatchResetLane(t *testing.T) {
	g := randomCircuit(t, 62, 70)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBatchEngine(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	twins := []*Engine{NewEngine(prog), NewEngine(prog), NewEngine(prog)}
	rng := rand.New(rand.NewSource(9))
	for cyc := 0; cyc < 6; cyc++ {
		for l := 0; l < 3; l++ {
			pokeBoth(t, be, l, twins[l], rng)
		}
		be.Run(1)
		for l := 0; l < 3; l++ {
			twins[l].Run(1)
		}
	}
	be.ResetLane(1)
	if be.Cycles(1) != 0 {
		t.Fatalf("reset lane cycle count = %d, want 0", be.Cycles(1))
	}
	fresh := NewEngine(prog)
	compareLane(t, be, 1, fresh, "recycled lane vs power-on")
	compareLane(t, be, 0, twins[0], "neighbour 0 after reset")
	compareLane(t, be, 2, twins[2], "neighbour 2 after reset")
	// The recycled lane must run correctly from scratch.
	rng2 := rand.New(rand.NewSource(10))
	for cyc := 0; cyc < 4; cyc++ {
		pokeBoth(t, be, 1, fresh, rng2)
		be.RunMasked(1, []bool{false, true, false})
		fresh.Run(1)
	}
	compareLane(t, be, 1, fresh, "recycled lane after rerun")
}

// TestBatchLanePortsMatchEngine: a batch lane runs the same port, hash
// and snapshot plumbing as an Engine view, so every accessor answers with
// the same value or the same error text, and at equal stimulus the lane's
// state hash and encoded snapshot equal the engine's — serial and
// partitioned.
func TestBatchLanePortsMatchEngine(t *testing.T) {
	const lane = 1
	e := NewEngine(compileSrc(t, portsSrc))
	be, err := NewBatchEngine(e.Program(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameErr := func(what string, a, b error) {
		t.Helper()
		if a == nil || b == nil || a.Error() != b.Error() {
			t.Errorf("%s: Engine error %v, lane error %v", what, a, b)
		}
	}
	sameErr("poke missing input", e.PokeInput("nope", 1), be.Poke(lane, "nope", 1))
	sameErr("narrow poke of wide input", e.PokeInput("w", 1), be.Poke(lane, "w", 1))
	sameErr("vec poke of missing input", e.PokeInputVec("nope", bitvec.New(8)), be.PokeVec(lane, "nope", bitvec.New(8)))
	_, err1 := e.PeekOutput("nope")
	_, err2 := be.Peek(lane, "nope")
	sameErr("peek missing output", err1, err2)
	_, err1 = e.PeekOutput("q")
	_, err2 = be.Peek(lane, "q")
	sameErr("narrow peek of wide output", err1, err2)
	_, err1 = e.PeekOutputVec("nope")
	_, err2 = be.PeekVec(lane, "nope")
	sameErr("vec peek of missing output", err1, err2)
	_, err1 = e.PeekReg("nope")
	_, err2 = be.PeekReg(lane, "nope")
	sameErr("peek missing register", err1, err2)

	w := bitvec.FromUint64(70, 0x1234)
	for _, poke := range []func() error{
		func() error { return e.PokeInput("n", 0x1a5) },
		func() error { return be.Poke(lane, "n", 0x1a5) },
		func() error { return e.PokeInputVec("w", w) },
		func() error { return be.PokeVec(lane, "w", w) },
	} {
		if err := poke(); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(2)
	be.Run(2)
	o1, _ := e.PeekOutput("o")
	o2, _ := be.Peek(lane, "o")
	if o1 != 0xa5 || o2 != 0xa5 {
		t.Errorf("output o: Engine %#x, lane %#x, want 0xa5", o1, o2)
	}
	compareLane(t, be, lane, e, "ports")

	for _, seed := range []int64{50, 55} {
		g := randomCircuit(t, seed, 70)
		for _, k := range []int{1, 3} {
			prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
			if err != nil {
				t.Fatal(err)
			}
			if k > 1 {
				prog = partitioned(t, g, k, seed)
			}
			e := NewEngine(prog)
			be, err := NewBatchEngine(prog, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for cyc := 0; cyc < 9; cyc++ {
				pokeBoth(t, be, lane, e, rng)
				be.Run(1)
				e.Run(1)
			}
			if h, _ := be.StateHashLane(lane); h != e.StateHash() {
				t.Errorf("seed %d k=%d: lane hash %016x, engine %016x", seed, k, h, e.StateHash())
			}
			ls, err := be.SnapshotLane(lane)
			if err != nil {
				t.Fatal(err)
			}
			es, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ls.Encode(), es.Encode()) {
				t.Errorf("seed %d k=%d: lane snapshot encodes differently from the engine's", seed, k)
			}
		}
	}
}

// TestBatchEngineErrors covers the constructor and lane-index guard rails.
func TestBatchEngineErrors(t *testing.T) {
	g := randomCircuit(t, 64, 70)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lanes int
		ok    bool
	}{{0, false}, {1, true}, {BatchWidth, true}, {BatchWidth + 1, false}} {
		_, err := NewBatchEngine(prog, tc.lanes)
		if (err == nil) != tc.ok {
			t.Fatalf("NewBatchEngine(lanes=%d): err %v, want accepted=%v", tc.lanes, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "1 <= lanes <= 16") {
			t.Fatalf("lanes=%d: error %q does not name the range", tc.lanes, err)
		}
	}
	be, err := NewBatchEngine(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Poke(2, "in1", 1); err == nil {
		t.Fatal("out-of-range lane accepted by Poke")
	}
	if _, err := be.Peek(-1, "whatever"); err == nil {
		t.Fatal("negative lane accepted by Peek")
	}
	if err := be.Poke(0, "nosuch", 1); err == nil {
		t.Fatal("unknown input accepted")
	}
	if be.Lanes() != 2 {
		t.Fatalf("Lanes() = %d, want 2", be.Lanes())
	}
	if be.StateBytes() <= 0 {
		t.Fatalf("StateBytes() = %d, want > 0", be.StateBytes())
	}
}

// TestBatchEmptyModule: a module without ports or state is legal input to
// the service; its program has zero state words and must step, not index
// an empty state array.
func TestBatchEmptyModule(t *testing.T) {
	be, err := NewBatchEngine(compileSrc(t, "circuit E {\n  module E {\n  }\n}\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	be.Run(2)
	if be.Cycles(3) != 2 {
		t.Fatalf("lane 3 at cycle %d, want 2", be.Cycles(3))
	}
}

// TestBatchRunNoAllocs: a narrow-only design must run allocation-free in
// steady state across every lane — the SoA frame is pre-laid-out and the
// memory-write buffers are pre-sized per lane.
func TestBatchRunNoAllocs(t *testing.T) {
	src := `
circuit Cnt {
  module Cnt {
    input  en  : UInt<1>
    input  din : UInt<24>
    output o   : UInt<24>
    reg r : UInt<24> init 1
    reg s : UInt<24> init 0
    mem m : UInt<24>[16]
    node nxt = tail(add(r, UInt<24>(1)), 1)
    r <= mux(en, nxt, r)
    write(m, bits(r, 3, 0), din, en)
    node rd = read(m, bits(nxt, 3, 0))
    s <= mux(lt(rd, din), rd, s)
    o <= s
  }
}
`
	prog := compileSrc(t, src)
	be, err := NewBatchEngine(prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 8; l++ {
		if err := be.Poke(l, "en", 1); err != nil {
			t.Fatal(err)
		}
		if err := be.Poke(l, "din", uint64(1000+l)); err != nil {
			t.Fatal(err)
		}
	}
	be.Run(4) // reach steady state
	allocs := testing.AllocsPerRun(50, func() { be.Run(1) })
	if allocs != 0 {
		t.Fatalf("batch Run allocates %v objects/cycle; want 0", allocs)
	}
}
