package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/firrtl"
)

// compileSrc compiles textual IR to a serial program at OptLevel 2.
func compileSrc(t testing.TB, src string) *Program {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatalf("check: %v", err)
	}
	fc, err := firrtl.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestLinkedMatchesReference is the linked executor's correctness claim:
// the resolved streams must be bit-identical to the graph-walking
// Reference on every register for any thread count.
func TestLinkedMatchesReference(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			for _, k := range []int{1, 3, 5} {
				specs := SerialSpec(g)
				if k > 1 {
					res, err := core.Partition(g, core.Options{
						K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1,
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
				ref := NewReference(g)
				linked := NewEngine(prog)

				rng := rand.New(rand.NewSource(seed * 31))
				for cyc := 0; cyc < 15; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					if err := ref.PokeInputUint("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInput("in2", w); err != nil {
						t.Fatal(err)
					}
					if err := linked.PokeInput("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := linked.PokeInputVec("in2", w); err != nil {
						t.Fatal(err)
					}
					ref.Step()
					linked.Run(1)
					for i := range g.Regs {
						rv, _ := ref.PeekReg(g.Regs[i].Name)
						lv, _ := linked.PeekReg(g.Regs[i].Name)
						if !bitvec.Eq(rv, lv) {
							t.Fatalf("k=%d cycle=%d: reference/linked diverge on %s: %v vs %v",
								k, cyc, g.Regs[i].Name, rv, lv)
						}
					}
				}
			}
		})
	}
}

// The unified state layout must give every region a disjoint, cache-line
// aligned range, and LinkedLoc must decode each word back to its region.
func TestLinkedLayoutDisjoint(t *testing.T) {
	g := randomCircuit(t, 42, 60)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 7, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if prog.ImmOff < prog.GlobalWords || prog.ImmOff%SegmentWords != 0 {
		t.Fatalf("imm region at %d overlaps globals [0,%d) or is unaligned", prog.ImmOff, prog.GlobalWords)
	}
	prevEnd := uint32(prog.ImmOff + len(prog.Imms))
	for ti := range prog.Threads {
		th := &prog.Threads[ti]
		if th.TempOff < prevEnd || th.TempOff%SegmentWords != 0 {
			t.Fatalf("thread %d frame at %d overlaps previous region ending %d or is unaligned", ti, th.TempOff, prevEnd)
		}
		if th.ShadowOff != th.TempOff+uint32(th.NumTemps) {
			t.Fatalf("thread %d shadow at %d, want temps end %d", ti, th.ShadowOff, th.TempOff+uint32(th.NumTemps))
		}
		prevEnd = th.ShadowOff + uint32(th.ShadowWords)
		if int(prevEnd) > prog.StateWords {
			t.Fatalf("thread %d frame ends at %d past state end %d", ti, prevEnd, prog.StateWords)
		}
		// LinkedLoc round-trips the frame.
		if th.NumTemps > 0 {
			loc, owner, ok := prog.LinkedLoc(th.TempOff)
			if !ok || owner != ti || loc.Space != SpaceLocal || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(temp0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
		if th.ShadowWords > 0 {
			loc, owner, ok := prog.LinkedLoc(th.ShadowOff)
			if !ok || owner != ti || loc.Space != SpaceShadow || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(shadow0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
	}
	if prog.GlobalWords > 0 {
		if loc, owner, ok := prog.LinkedLoc(0); !ok || owner != -1 || loc.Space != SpaceGlobal {
			t.Fatalf("LinkedLoc(0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	if len(prog.Imms) > 0 {
		loc, owner, ok := prog.LinkedLoc(uint32(prog.ImmOff))
		if !ok || owner != -1 || loc.Space != SpaceImm || loc.Idx != 0 {
			t.Fatalf("LinkedLoc(imm0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	// Padding between globals and imms decodes to nothing.
	if prog.ImmOff > prog.GlobalWords {
		if _, _, ok := prog.LinkedLoc(uint32(prog.GlobalWords)); ok {
			t.Fatal("padding word decoded as owned")
		}
	}
}

// A linked instruction is 32 bytes, and TotalInstrs counts every linked
// instruction (linking is 1:1: translate resolves each buffered
// instruction to one). Checked on every bundled design at k in {1,2}.
func TestLinkOneToOne(t *testing.T) {
	if sz := unsafe.Sizeof(LInstr{}); sz != 32 {
		t.Fatalf("LInstr is %d bytes; want 32 (two per cache line)", sz)
	}
	check := func(t *testing.T, prog *Program) {
		t.Helper()
		total := 0
		for ti := range prog.Threads {
			total += len(prog.Threads[ti].Code)
		}
		if prog.TotalInstrs() != total {
			t.Fatalf("TotalInstrs %d, linked code has %d", prog.TotalInstrs(), total)
		}
	}
	for _, cfg := range designs.Table1(1.0) {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(cfg.Name()+"/k1", func(t *testing.T) {
			prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
			if err != nil {
				t.Fatal(err)
			}
			check(t, prog)
		})
		t.Run(cfg.Name()+"/k2", func(t *testing.T) {
			check(t, partitioned(t, g, 2, 1))
		})
	}
}

// Every memory column a thread's linked code reads or writes is allocated
// in that thread's copy, and the thread applies the write buffer of every
// thread whose linked code writes such a column: both are derived from the
// stream that runs. On the bundled designs the held copies never cost more
// than two whole copies of the memories.
func TestMemHoldersCoverLinkedCode(t *testing.T) {
	for _, cfg := range designs.Table1(1.0) {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("%s/k%d", cfg.Name(), k), func(t *testing.T) {
				var prog *Program
				if k == 1 {
					if prog, err = Compile(g, SerialSpec(g), Config{OptLevel: 2}); err != nil {
						t.Fatal(err)
					}
				} else {
					prog = partitioned(t, g, k, 1)
				}
				e := NewEngine(prog)
				for w := range prog.Threads {
					for pc, in := range prog.Threads[w].Code {
						if in.Op != OpMemRd && in.Op != OpMemWr {
							continue
						}
						if e.gs[w].mems[in.Aux] == nil {
							t.Fatalf("thread %d pc %d: %v on column %d, which the thread does not hold", w, pc, in.Op, in.Aux)
						}
						for r := range prog.Threads {
							if in.Op == OpMemWr && e.gs[r].mems[in.Aux] != nil && !slices.Contains(e.writers[r], w) {
								t.Fatalf("thread %d holds column %d but does not apply thread %d's writes", r, in.Aux, w)
							}
						}
					}
				}
				var held int64
				for _, gs := range e.gs {
					for _, col := range gs.mems {
						held += int64(len(col)) * 8
					}
				}
				if views := int64(min(k, 2)) * prog.memBytes(); held > views {
					t.Fatalf("held memory copies take %d bytes, %d whole copies %d", held, min(k, 2), views)
				}
			})
		}
	}
}

// A narrow-only design must run allocation-free in steady state: the frame
// is pre-laid-out, the wide closures are never built, and the memory-write
// buffers are pre-sized (the capacity-reuse satellite).
func TestEngineRunNoAllocs(t *testing.T) {
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
	e := NewEngine(prog)
	if err := e.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.PokeInput("din", 12345); err != nil {
		t.Fatal(err)
	}
	e.Run(4) // warm up: memBuf etc. reach steady state
	allocs := testing.AllocsPerRun(50, func() { e.Run(1) })
	if allocs != 0 {
		t.Fatalf("Run allocates %v objects/cycle; want 0", allocs)
	}
}
