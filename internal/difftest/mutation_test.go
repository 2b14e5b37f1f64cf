package difftest

// Mutation tests prove the differential oracle is live: each test plants
// one executor-bug class into a freshly compiled serial program, asserts
// the oracle catches the divergence, and shrinks the witness circuit to a
// handful of vertices. An oracle that cannot catch these would pass a
// broken simulator vacuously. (The static analogue lives in
// internal/verify/mutation_test.go; these bugs are dynamic — they corrupt
// values, not the schedule, so only state comparison can see them.)

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/firrtl"
	"repro/internal/genckt"
	"repro/internal/sim"
)

// mutOptions is the cheap oracle matrix used for mutation hunting: the
// mutant only has to disagree with the reference, so partition sweeps and
// the service layer stay out of the loop.
func mutOptions(seed int64, mutate func(*sim.Program) bool) Options {
	return Options{
		Seed:    seed,
		Cycles:  12,
		Parts:   []int{},
		Workers: []int{},
		Mutate:  mutate,
	}
}

// huntAndShrink scans generator seeds until the planted mutation produces
// a caught divergence, then shrinks the witness and asserts it minimizes
// to at most maxVerts graph vertices.
func huntAndShrink(t *testing.T, name string, mutate func(*sim.Program) bool) {
	t.Helper()
	huntAndShrinkColumn(t, name, "mutant", 12, func(seed int64) Options { return mutOptions(seed, mutate) })
}

// huntAndShrinkColumn is huntAndShrink for a defect planted through
// Options: only the column whose engine names start with column may
// diverge.
func huntAndShrinkColumn(t *testing.T, name, column string, maxVerts int, options func(seed int64) Options) {
	t.Helper()
	for seed := int64(1); seed <= 25; seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 30})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := options(seed)
		m := Run(d, opt)
		if m == nil {
			continue // mutation silent or inapplicable on this circuit
		}
		if !strings.HasPrefix(m.Engine, column) {
			t.Fatalf("seed %d: engine outside the %s column diverged: %v", seed, column, m)
		}
		pred := func(cd *genckt.Design, cycles int) bool {
			o := opt
			o.Cycles = cycles
			cm := Run(cd, o)
			return cm != nil && strings.HasPrefix(cm.Engine, column)
		}
		res := Shrink(s, opt.Cycles, pred)
		if res == nil {
			t.Fatalf("seed %d: shrink lost the failure", seed)
		}
		nv := res.Design.Graph.NumVertices()
		t.Logf("%s: seed %d caught (%v); shrunk to %d vertices, %d cycles in %d evals (%s)",
			name, seed, m, nv, res.Cycles, res.Evals, res.Spec.Counts())
		if nv > maxVerts {
			t.Fatalf("%s: shrunk witness still has %d vertices (> %d):\n%s",
				name, nv, maxVerts, res.Design.Text)
		}
		return
	}
	t.Fatalf("%s: no seed in 1..25 triggered the mutation", name)
}

// firstMutable returns the pc of the first plain computational instruction
// on thread 0 (OpNop/OpMemWr excluded), or -1.
func firstMutable(p *sim.Program, accept func(*sim.Instr) bool) int {
	for pc := range p.Threads[0].Code {
		in := &p.Threads[0].Code[pc]
		if in.Op == sim.OpNop || in.Op == sim.OpMemWr {
			continue
		}
		if accept == nil || accept(in) {
			return pc
		}
	}
	return -1
}

// Bug 1 — wrong commit order: a sink store lands in the neighbouring
// shadow word, so one sink is stale and another double-driven when the
// commit memcpy publishes the shadow segment.
func TestMutationShadowSwap(t *testing.T) {
	huntAndShrink(t, "shadow-swap", func(p *sim.Program) bool {
		th := &p.Threads[0]
		if th.ShadowWords < 2 {
			return false
		}
		pc := firstMutable(p, func(in *sim.Instr) bool {
			return sim.RefTag(in.Dst) == sim.RefShadow
		})
		if pc < 0 {
			return false
		}
		in := &th.Code[pc]
		other := (sim.RefIdx(in.Dst) + 1) % uint32(th.ShadowWords)
		in.Dst = sim.MakeRef(sim.RefShadow, other)
		return true
	})
}

// Bug 2 — stale operand: an instruction reads a register's committed
// global word instead of the freshly computed local temp, reintroducing
// the last-cycle value the two-phase protocol exists to hide.
func TestMutationStaleOperand(t *testing.T) {
	huntAndShrink(t, "stale-operand", func(p *sim.Program) bool {
		var slot uint32
		found := false
		for _, r := range p.Regs {
			if r.Width <= 64 {
				slot, found = r.Slot, true
				break
			}
		}
		if !found {
			return false
		}
		pc := firstMutable(p, func(in *sim.Instr) bool {
			return sim.TraitsOf(in.Op).Reads >= 1 && sim.RefTag(in.A) == sim.RefLocal
		})
		if pc < 0 {
			return false
		}
		p.Threads[0].Code[pc].A = sim.MakeRef(sim.RefGlobal, slot)
		return true
	})
}

// Bug 3 — off-by-one memory bound: the executor allocates (and bounds-
// checks against) one word less than the architecture declares, so the top
// address silently vanishes.
func TestMutationMemDepthOffByOne(t *testing.T) {
	huntAndShrink(t, "mem-depth", func(p *sim.Program) bool {
		if len(p.Mems) == 0 || p.Mems[0].Depth < 2 {
			return false
		}
		p.Mems[0].Depth--
		return true
	})
}

// Bug 4 — dropped instruction: a local def is replaced by a nop, leaving
// its consumers reading a stale or zero temp.
func TestMutationDroppedInstr(t *testing.T) {
	huntAndShrink(t, "dropped-instr", func(p *sim.Program) bool {
		defPC, ok := firstLocalDefUsed(p)
		if !ok {
			return false
		}
		p.Threads[0].Code[defPC] = sim.Instr{Op: sim.OpNop}
		return true
	})
}

// firstLocalDefUsed finds a local def that some later instruction actually
// reads (nopping an unused def would be invisible by construction).
func firstLocalDefUsed(p *sim.Program) (int, bool) {
	local := func(out []uint32, refs ...uint32) []uint32 {
		for _, r := range refs {
			if sim.RefTag(r) == sim.RefLocal {
				out = append(out, sim.RefIdx(r))
			}
		}
		return out
	}
	defAt := map[uint32]int{}
	var defs, uses []uint32
	code := p.Threads[0].Code
	for pc := range code {
		in := &code[pc]
		defs, uses = defs[:0], uses[:0]
		if in.Op != sim.OpNop {
			refs := [3]uint32{in.A, in.B, in.C}
			uses = local(uses, refs[:sim.TraitsOf(in.Op).Reads]...)
			if in.Op != sim.OpMemWr {
				defs = local(defs, in.Dst)
			}
		}
		for _, u := range uses {
			if dp, ok := defAt[u]; ok {
				return dp, true
			}
		}
		for _, d := range defs {
			defAt[d] = pc
		}
	}
	return -1, false
}

// Bug 5 — mask truncation: a result mask loses its top bit, silently
// narrowing one signal by one bit.
func TestMutationMaskTruncation(t *testing.T) {
	huntAndShrink(t, "mask-truncation", func(p *sim.Program) bool {
		pc := firstMutable(p, func(in *sim.Instr) bool {
			return bits.OnesCount64(in.Mask) > 1
		})
		if pc < 0 {
			return false
		}
		p.Threads[0].Code[pc].Mask >>= 1
		return true
	})
}

// Bug 6 — swapped mux arms: the select polarity inverts on one mux.
func TestMutationSwappedMux(t *testing.T) {
	huntAndShrink(t, "swapped-mux", func(p *sim.Program) bool {
		pc := firstMutable(p, func(in *sim.Instr) bool {
			return in.Op == sim.OpMux
		})
		if pc < 0 {
			return false
		}
		in := &p.Threads[0].Code[pc]
		in.B, in.C = in.C, in.B
		return true
	})
}

// Bug 7 — dropped carry: words wider than 64 bits add through a carry
// chain, sum = add(x, y) then carry = lt(sum, x). The first such carry is
// zeroed (lt(sum, sum)), so a wide add (or the chain inside a wide mul or
// negation) loses 2^64 whenever its low words overflow.
func TestMutationWideCarryDrop(t *testing.T) {
	huntAndShrink(t, "wide-carry-drop", func(p *sim.Program) bool {
		code := p.Threads[0].Code
		for pc := 1; pc < len(code); pc++ {
			if add, lt := &code[pc-1], &code[pc]; add.Op == sim.OpAdd && lt.Op == sim.OpLt && lt.A == add.Dst && lt.B == add.A {
				lt.B = lt.A
				return true
			}
		}
		return false
	})
}

// Bug 8 — batch-column liveness: the same mask-truncation bug is planted
// into the program backing the lane-batched engine only (the solo twins
// stay clean), so the divergence is visible exclusively through the batch
// column's per-lane full-state compare. An oracle whose batch column
// could not fail would vacuously pass a broken batched executor.
func TestMutationBatchColumn(t *testing.T) {
	mutate := func(p *sim.Program) bool {
		pc := firstMutable(p, func(in *sim.Instr) bool {
			return bits.OnesCount64(in.Mask) > 1
		})
		if pc < 0 {
			return false
		}
		p.Threads[0].Code[pc].Mask >>= 1
		return true
	}
	for seed := int64(1); seed <= 25; seed++ {
		s := genckt.Generate(genckt.Config{Seed: seed, Size: 30})
		d, err := s.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := Options{
			Seed:        seed,
			Cycles:      12,
			Parts:       []int{},
			Workers:     []int{},
			MutateBatch: mutate,
		}
		m := Run(d, opt)
		if m == nil {
			continue // mutation silent or inapplicable on this circuit
		}
		if !strings.HasPrefix(m.Engine, "batch-mutant") {
			t.Fatalf("seed %d: non-batch engine diverged: %v", seed, m)
		}
		t.Logf("batch-column: seed %d caught (%v)", seed, m)
		return
	}
	t.Fatal("batch-column: no seed in 1..25 triggered the mutation")
}

// Bug 9 — par-column liveness: the one-barrier engine keeps two views of
// every memory and each thread must re-apply its previous cycle's writes to
// the view it publishes into. With that catch-up dropped, every view misses
// every other cycle's writes. The defect lives in the engine, not in the
// program, so only the par-k columns (the multi-threaded sim.Engine) can
// see it; the serial engines over the same circuit keep one view and stay
// clean.
func TestMutationParSkippedCatchUp(t *testing.T) {
	huntAndShrinkColumn(t, "par-skip-catch-up", "par-k", 16, func(seed int64) Options {
		return Options{Seed: seed, Cycles: 12, Parts: []int{3, 5}, Workers: []int{}, ParBug: (*sim.Engine).PlantSkipCatchUp}
	})
}

// Bug 9b — exchange liveness: each thread of the multi-threaded engine
// evaluates over a private array and sees other threads' registers only
// through the per-cycle exchange. With the exchange packed before the
// commit, every reader evaluates with last cycle's copy of each remote
// register, which only the par-k columns can see.
func TestMutationParStaleExchange(t *testing.T) {
	huntAndShrinkColumn(t, "par-stale-exchange", "par-k", 16, func(seed int64) Options {
		return Options{Seed: seed, Cycles: 12, Parts: []int{3, 5}, Workers: []int{}, ParBug: (*sim.Engine).PlantStaleExchange}
	})
}

// Bug 10 — merge-column liveness: the merge folds two bits of one operand
// that select different bit ranges, as a hash-cons key of op and operands
// alone would (for bits the constants also fix the result type). The
// defect is planted by giving the later vertex the earlier one's constants
// and type just before Merge runs on the merged-O2 column's graph; the
// reference keeps the unmerged graph, so only that column can diverge.
func TestMutationMergeIgnoresConsts(t *testing.T) {
	huntAndShrinkColumn(t, "merge-ignores-consts", "merged-mutant", 16, func(seed int64) Options {
		return Options{Seed: seed, Cycles: 12, Parts: []int{}, Workers: []int{}, MutateMerge: foldDistinctBits}
	})
}

// foldDistinctBits finds two narrow bits vertices over one operand vertex
// with different constants and makes the second a copy of the first, so
// Merge folds it.
func foldDistinctBits(g *cgraph.Graph) bool {
	first := map[cgraph.VID]*cgraph.Vertex{}
	for i := range g.Vs {
		v := &g.Vs[i]
		if v.Kind != cgraph.KindLogic || v.Op != firrtl.OpBits || v.Args[0].V == cgraph.None || v.Type.Width > 64 {
			continue
		}
		if f, ok := first[v.Args[0].V]; !ok {
			first[v.Args[0].V] = v
		} else if !slices.Equal(f.Consts, v.Consts) {
			v.Consts, v.Type = f.Consts, f.Type
			return true
		}
	}
	return false
}
