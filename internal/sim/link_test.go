package sim

import (
	"fmt"
	"math/rand"
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

// TestLinkedMatchesInterp is the linked fast path's correctness claim: the
// resolved streams must be bit-identical to the closure-based
// interpreter on every register for any thread count.
func TestLinkedMatchesInterp(t *testing.T) {
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
				interp := NewInterpEngine(prog)
				linked := NewEngine(prog)
				if linked.lp == nil || interp.lp != nil {
					t.Fatalf("engine modes wrong: interp.lp=%v linked.lp=%v", interp.lp, linked.lp)
				}

				rng := rand.New(rand.NewSource(seed * 31))
				for cyc := 0; cyc < 15; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					for _, e := range []*Engine{interp, linked} {
						if err := e.PokeInput("in1", v1); err != nil {
							t.Fatal(err)
						}
						if err := e.PokeInputVec("in2", w); err != nil {
							t.Fatal(err)
						}
					}
					interp.Run(1)
					linked.Run(1)
					for i := range g.Regs {
						iv, _ := interp.PeekReg(g.Regs[i].Name)
						lv, _ := linked.PeekReg(g.Regs[i].Name)
						if !bitvec.Eq(iv, lv) {
							t.Fatalf("k=%d cycle=%d: interp/linked diverge on %s: %v vs %v",
								k, cyc, g.Regs[i].Name, iv, lv)
						}
					}
				}
			}
		})
	}
}

// Linking must not change the program's observable identity: the linked
// form is derived state, excluded from Fingerprint.
func TestLinkedFingerprintUnchanged(t *testing.T) {
	g := randomCircuit(t, 41, 60)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := prog.Fingerprint()
	lp := prog.Linked()
	if lp == nil || lp.Program() != prog {
		t.Fatalf("Linked() returned %v", lp)
	}
	if after := prog.Fingerprint(); after != before {
		t.Fatalf("Fingerprint changed by linking: %016x -> %016x", before, after)
	}
	if prog.Linked() != lp {
		t.Fatal("Linked() not cached: second call returned a different object")
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
	lp := prog.Linked()
	if lp.ImmOff < prog.GlobalWords || lp.ImmOff%SegmentWords != 0 {
		t.Fatalf("imm region at %d overlaps globals [0,%d) or is unaligned", lp.ImmOff, prog.GlobalWords)
	}
	prevEnd := uint32(lp.ImmOff + len(prog.Imms))
	for ti := range lp.Threads {
		lt := &lp.Threads[ti]
		th := &prog.Threads[ti]
		if lt.TempOff < prevEnd || lt.TempOff%SegmentWords != 0 {
			t.Fatalf("thread %d frame at %d overlaps previous region ending %d or is unaligned", ti, lt.TempOff, prevEnd)
		}
		if lt.ShadowOff != lt.TempOff+uint32(th.NumTemps) {
			t.Fatalf("thread %d shadow at %d, want temps end %d", ti, lt.ShadowOff, lt.TempOff+uint32(th.NumTemps))
		}
		prevEnd = lt.ShadowOff + uint32(th.ShadowWords)
		if int(prevEnd) > lp.StateWords {
			t.Fatalf("thread %d frame ends at %d past state end %d", ti, prevEnd, lp.StateWords)
		}
		// LinkedLoc round-trips the frame.
		if th.NumTemps > 0 {
			loc, owner, ok := lp.LinkedLoc(lt.TempOff)
			if !ok || owner != ti || loc.Space != SpaceLocal || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(temp0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
		if th.ShadowWords > 0 {
			loc, owner, ok := lp.LinkedLoc(lt.ShadowOff)
			if !ok || owner != ti || loc.Space != SpaceShadow || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(shadow0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
	}
	if prog.GlobalWords > 0 {
		if loc, owner, ok := lp.LinkedLoc(0); !ok || owner != -1 || loc.Space != SpaceGlobal {
			t.Fatalf("LinkedLoc(0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	if len(prog.Imms) > 0 {
		loc, owner, ok := lp.LinkedLoc(uint32(lp.ImmOff))
		if !ok || owner != -1 || loc.Space != SpaceImm || loc.Idx != 0 {
			t.Fatalf("LinkedLoc(imm0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	// Padding between globals and imms decodes to nothing.
	if lp.ImmOff > prog.GlobalWords {
		if _, _, ok := lp.LinkedLoc(uint32(prog.GlobalWords)); ok {
			t.Fatal("padding word decoded as owned")
		}
	}
}

// Linking is strictly 1:1 for every program — same length, same opcode at
// every pc — so Marks and TaskRange offsets stay valid on linked code and
// the linked instruction set is the base instruction set. Checked on every
// bundled design at k in {1,2} and on one Shared-mode program.
func TestLinkOneToOne(t *testing.T) {
	if sz := unsafe.Sizeof(LInstr{}); sz != 32 {
		t.Fatalf("LInstr is %d bytes; want 32 (two per cache line)", sz)
	}
	check := func(t *testing.T, prog *Program) {
		t.Helper()
		lp := prog.Linked()
		total := 0
		for ti := range prog.Threads {
			th, lt := &prog.Threads[ti], &lp.Threads[ti]
			if len(lt.Code) != len(th.Code) {
				t.Fatalf("thread %d: linked %d instrs, program %d", ti, len(lt.Code), len(th.Code))
			}
			for pc := range th.Code {
				if lt.Code[pc].Op != th.Code[pc].Op {
					t.Fatalf("thread %d pc %d: opcode changed %v -> %v", ti, pc, th.Code[pc].Op, lt.Code[pc].Op)
				}
			}
			total += len(th.Code)
		}
		if lp.Stats.Instrs != total || lp.Stats.Linked != total {
			t.Fatalf("stats instrs=%d linked=%d, program has %d", lp.Stats.Instrs, lp.Stats.Linked, total)
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
	t.Run("shared", func(t *testing.T) {
		g := randomCircuit(t, 43, 60)
		res, err := core.Partition(g, core.Options{K: 3, Seed: 7, Model: costmodel.Default()})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(g, partSpecs(res), Config{Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, prog)
	})
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
