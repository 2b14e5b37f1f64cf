package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// partSpecs converts a core partitioning into compiler PartSpecs.
func partSpecs(res *core.Result) []PartSpec {
	specs := make([]PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
	}
	return specs
}

// TestParallelMatchesSerial is the central correctness claim: a RepCut
// parallel simulator must be cycle-exact with the serial simulator for any
// thread count, replication included.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			serialProg, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
			if err != nil {
				t.Fatalf("serial compile: %v", err)
			}
			ref := NewReference(g)
			serial := NewEngine(serialProg)

			for _, k := range []int{2, 3, 4, 7} {
				res, err := core.Partition(g, core.Options{
					K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1,
				})
				if err != nil {
					t.Fatalf("partition k=%d: %v", k, err)
				}
				prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
				if err != nil {
					t.Fatalf("compile k=%d: %v", k, err)
				}
				par := NewEngine(prog)
				serial.Reset()
				ref.Reset()

				rng := rand.New(rand.NewSource(seed))
				for cyc := 0; cyc < 12; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					for _, e := range []*Engine{serial, par} {
						if err := e.PokeInput("in1", v1); err != nil {
							t.Fatal(err)
						}
						if err := e.PokeInputVec("in2", w); err != nil {
							t.Fatal(err)
						}
					}
					if err := ref.PokeInputUint("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInput("in2", w); err != nil {
						t.Fatal(err)
					}
					serial.Run(1)
					par.Run(1)
					ref.Step()
					compareState(t, g, par, ref, fmt.Sprintf("k=%d cycle=%d", k, cyc))
					// And serial against parallel on every register.
					for i := range g.Regs {
						sv, _ := serial.PeekReg(g.Regs[i].Name)
						pv, _ := par.PeekReg(g.Regs[i].Name)
						if !bitvec.Eq(sv, pv) {
							t.Fatalf("k=%d cycle=%d: serial/parallel diverge on %s: %v vs %v",
								k, cyc, g.Regs[i].Name, sv, pv)
						}
					}
				}
			}
		})
	}
}

// Multi-cycle batched runs must agree with single-stepped runs.
func TestBatchedRunMatchesStepped(t *testing.T) {
	g := randomCircuit(t, 99, 50)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := NewEngine(prog)
	b := NewEngine(prog)
	if err := a.PokeInput("in1", 12345); err != nil {
		t.Fatal(err)
	}
	if err := b.PokeInput("in1", 12345); err != nil {
		t.Fatal(err)
	}
	a.Run(40)
	for i := 0; i < 40; i++ {
		b.Run(1)
	}
	for i := range g.Regs {
		av, _ := a.PeekReg(g.Regs[i].Name)
		bv, _ := b.PeekReg(g.Regs[i].Name)
		if !bitvec.Eq(av, bv) {
			t.Fatalf("batched vs stepped diverge on %s", g.Regs[i].Name)
		}
	}
	if a.Cycles() != 40 || b.Cycles() != 40 {
		t.Fatalf("cycle counts wrong: %d / %d", a.Cycles(), b.Cycles())
	}
	if a.InstrsRetired() == 0 || a.InstrsRetired() != b.InstrsRetired() {
		t.Fatalf("instr counts wrong: %d / %d", a.InstrsRetired(), b.InstrsRetired())
	}
}

// RunProfiled must produce complete per-phase samples and not perturb
// results.
func TestRunProfiled(t *testing.T) {
	g := randomCircuit(t, 123, 40)
	res, err := core.Partition(g, core.Options{K: 2, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	samples := e.RunProfiled(5)
	if len(samples) != 5 {
		t.Fatalf("want 5 cycle samples, got %d", len(samples))
	}
	for c, row := range samples {
		if len(row) != 2 {
			t.Fatalf("cycle %d: want 2 thread samples", c)
		}
		for th, s := range row {
			if s.Eval < 0 || s.EvalBarrier < 0 || s.Update < 0 || s.UpdateBarrier < 0 {
				t.Fatalf("cycle %d thread %d: negative phase time %+v", c, th, s)
			}
		}
	}
	if e.Cycles() != 5 {
		t.Fatalf("cycles = %d", e.Cycles())
	}
}

// The layout must give every thread a cache-line-aligned private segment:
// no 64-byte line of the global array is written by two threads.
func TestLayoutNoFalseSharing(t *testing.T) {
	g := randomCircuit(t, 7, 60)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{})
	if err != nil {
		t.Fatal(err)
	}
	lineOwner := map[int]int{}
	for t_ := range prog.Threads {
		th := &prog.Threads[t_]
		if th.GlobalOff%SegmentWords != 0 {
			t.Fatalf("thread %d segment not aligned: off=%d", t_, th.GlobalOff)
		}
		for w := th.GlobalOff; w < th.GlobalOff+th.ShadowWords; w++ {
			line := w / SegmentWords
			if prev, ok := lineOwner[line]; ok && prev != t_ {
				t.Fatalf("cache line %d written by threads %d and %d", line, prev, t_)
			}
			lineOwner[line] = t_
		}
	}
}

// Determinism under parallel execution: two runs of the same program and
// stimulus give identical state (no ordering races).
func TestParallelDeterminism(t *testing.T) {
	g := randomCircuit(t, 31, 60)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 6, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bitvec.Vec {
		e := NewEngine(prog)
		if err := e.PokeInput("in1", 777); err != nil {
			t.Fatal(err)
		}
		e.Run(50)
		var out []bitvec.Vec
		for i := range g.Regs {
			v, _ := e.PeekReg(g.Regs[i].Name)
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !bitvec.Eq(a[i], b[i]) {
			t.Fatalf("nondeterministic parallel run at reg %d", i)
		}
	}
}
