package codegen_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/sim"
)

// checkSchedule reports the first way order is not a legal emission order
// of thread t: not a permutation of its linked PCs, a temp read at or
// before its def, or memory writes out of their PC order.
func checkSchedule(lp *sim.LinkedProgram, t int, order []int) error {
	lt := &lp.Threads[t]
	code := lt.Code
	if len(order) != len(code) {
		return fmt.Errorf("order has %d entries, thread has %d instructions", len(order), len(code))
	}
	seen := make([]bool, len(code))
	defAt := map[uint32]int{}
	var defs, uses []uint32
	for pos, pc := range order {
		if pc < 0 || pc >= len(code) || seen[pc] {
			return fmt.Errorf("position %d: pc %d is out of range or repeated", pos, pc)
		}
		seen[pc] = true
		defs, _, _, _ = lp.LinkedDefUse(&code[pc], defs[:0], nil, nil, nil)
		for _, w := range defs {
			if _, ok := defAt[w]; !ok && w >= lt.TempOff && w < lt.ShadowOff {
				defAt[w] = pos
			}
		}
	}
	lastWr := -1
	for pos, pc := range order {
		_, uses, _, _ = lp.LinkedDefUse(&code[pc], nil, uses[:0], nil, nil)
		for _, u := range uses {
			if u < lt.TempOff || u >= lt.ShadowOff {
				continue
			}
			if d, ok := defAt[u]; !ok || d >= pos {
				return fmt.Errorf("pc %d at position %d reads temp word %d before its def", pc, pos, u)
			}
		}
		if code[pc].Op == sim.OpMemWr {
			if pc < lastWr {
				return fmt.Errorf("memory write pc %d emitted after memory write pc %d", pc, lastWr)
			}
			lastWr = pc
		}
	}
	return nil
}

// TestEmitSchedule checks the emitter's order on every golden program and
// thread (no plugin is built, so it runs everywhere), then checks that the
// checker rejects an order with one consumer hoisted above its producer.
func TestEmitSchedule(t *testing.T) {
	var probe *sim.LinkedProgram
	for _, np := range goldenPrograms(t) {
		lp := np.p.Linked()
		for th := range lp.Threads {
			if err := checkSchedule(lp, th, codegen.Schedule(lp, th)); err != nil {
				t.Errorf("%s thread %d: %v", np.name, th, err)
			}
		}
		if np.name == "RocketChip-1C/k1" {
			probe = lp
		}
	}

	order := codegen.Schedule(probe, 0)
	lt := &probe.Threads[0]
	pos := make([]int, len(order))
	for i, pc := range order {
		pos[pc] = i
	}
	for i, pc := range order {
		in := &lt.Code[pc]
		if in.Op == sim.OpMemWr || sim.TraitsOf(in.Op).Reads == 0 || in.A < lt.TempOff || in.A >= lt.ShadowOff {
			continue
		}
		prod := slices.IndexFunc(lt.Code, func(p sim.LInstr) bool { return p.Op != sim.OpMemWr && p.Dst == in.A })
		if prod < 0 {
			continue
		}
		bad := slices.Delete(slices.Clone(order), i, i+1)
		bad = slices.Insert(bad, pos[prod], pc)
		if err := checkSchedule(probe, 0, bad); err == nil {
			t.Fatalf("hoisting pc %d above its producer pc %d was accepted", pc, prod)
		}
		return
	}
	t.Fatal("RocketChip-1C/k1 has no instruction reading a temp")
}

// TestNativeMatchesLinkedMultiChunk runs kernels whose threads span
// several chunk functions, so temps cross chunk boundaries: full-scale
// RocketChip-1C at k=1 and RocketChip-4C at k=2, native against linked
// state hashes after every one of 150 cycles of random pokes, then equal
// snapshot bytes (the kernel leaves chunk-local temp words unwritten).
func TestNativeMatchesLinkedMultiChunk(t *testing.T) {
	if err := codegen.Supported(); err != nil {
		t.Skipf("native codegen unsupported here: %v", err)
	}
	store, err := codegen.Open(t.TempDir(), codegen.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, np := range goldenPrograms(t) {
		if np.name != "RocketChip-1C/k1" && np.name != "RocketChip-4C/k2" {
			continue
		}
		p := np.p
		em, err := codegen.Emit(p.Linked(), codegen.EmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if em.Chunks < 2*em.Threads {
			t.Fatalf("%s: %d chunks over %d threads, want at least two per thread", np.name, em.Chunks, em.Threads)
		}
		k, err := store.Kernel(p, codegen.EmitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		linked, native := sim.NewEngine(p), sim.NewEngine(p)
		if err := native.InstallNative(k.Threads); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for cyc := 0; cyc < 150; cyc++ {
			for _, in := range p.Inputs {
				v := rng.Uint64()
				if in.Width < 64 {
					v &= 1<<in.Width - 1
				}
				for _, e := range []*sim.Engine{linked, native} {
					if err := e.PokeInput(in.Name, v); err != nil {
						t.Fatalf("%s: poke %s: %v", np.name, in.Name, err)
					}
				}
			}
			linked.Run(1)
			native.Run(1)
			if hl, hn := linked.StateHash(), native.StateHash(); hl != hn {
				t.Fatalf("%s: state hash diverged at cycle %d: linked %#x native %#x", np.name, cyc, hl, hn)
			}
		}
		ls, err := linked.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ns, err := native.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ls.Encode(), ns.Encode()) {
			t.Fatalf("%s: linked and native snapshots of one state encode differently", np.name)
		}
	}
}
