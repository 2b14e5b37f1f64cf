package sim

// Protocol tests for the multi-threaded engine's one-barrier cycle: two
// state views, evaluate over one, publish into the other, swap. Each test
// names the hazard or boundary it provokes. CI runs this file under -race
// at GOMAXPROCS 1 and 2 (-run 'Protocol|Barrier').

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
)

// graphOf elaborates FIRRTL text into a circuit graph.
func graphOf(t *testing.T, src string) *cgraph.Graph {
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
	return g
}

// handParts partitions g by hand: owner names the thread of every sink, and
// each thread gets the cones of its sinks (replicating shared logic), in
// topological order.
func handParts(g *cgraph.Graph, k int, owner func(sink string) int) []PartSpec {
	parts := make([]PartSpec, k)
	in := make([][]bool, k)
	for t := range in {
		in[t] = make([]bool, g.NumVertices())
	}
	for _, s := range g.Sinks() {
		t := owner(g.Vs[s].Name)
		parts[t].Sinks = append(parts[t].Sinks, s)
		stack := []cgraph.VID{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if in[t][v] || g.Vs[v].Kind.IsSource() {
				continue
			}
			in[t][v] = true
			stack = append(stack, g.Preds[v]...)
		}
	}
	for t := range parts {
		for _, v := range g.Topo {
			if in[t][v] {
				parts[t].Vertices = append(parts[t].Vertices, v)
			}
		}
	}
	return parts
}

// partitioned compiles g into k threads with the repository's partitioner.
func partitioned(t *testing.T, g *cgraph.Graph, k int, seed int64) *Program {
	t.Helper()
	res, err := core.Partition(g, core.Options{K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1})
	if err != nil {
		t.Fatalf("partition k=%d: %v", k, err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatalf("compile k=%d: %v", k, err)
	}
	return prog
}

// Run(1) N times and Run(N) once must land in the same state whether N is
// odd or even: the view parity carried across Run calls is the only thing
// that differs between the two.
func TestProtocolSteppedEqualsBulk(t *testing.T) {
	g := randomCircuit(t, 71, 70)
	for _, k := range []int{2, 3} {
		prog := partitioned(t, g, k, 71)
		for _, n := range []int{1, 2, 7, 12} {
			stepped, bulk := NewEngine(prog), NewEngine(prog)
			in := randomInputs(prog, rand.New(rand.NewSource(int64(n))))
			pokeAll(t, stepped, in)
			pokeAll(t, bulk, in)
			for i := 0; i < n; i++ {
				stepped.Run(1)
			}
			bulk.Run(n)
			tag := fmt.Sprintf("k=%d n=%d", k, n)
			if hs, hb := stepped.StateHash(), bulk.StateHash(); hs != hb {
				t.Fatalf("%s: state hash %#x stepped, %#x bulk", tag, hs, hb)
			}
			compareEngines(t, stepped, bulk, tag)
		}
	}
}

// A poke lands in both views: after an odd number of cycles the next cycle
// evaluates over the view the poke before the run did not have to reach.
func TestProtocolPokeBetweenOddRuns(t *testing.T) {
	g := randomCircuit(t, 72, 60)
	prog := partitioned(t, g, 2, 72)
	e, ref := NewEngine(prog), NewReference(g)
	rng := rand.New(rand.NewSource(72))
	for round, n := range []int{3, 1, 5, 1, 1, 2, 3} {
		in := randomInputs(prog, rng)
		pokeAll(t, e, in)
		for name, v := range in {
			if err := ref.PokeInput(name, v); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(n)
		ref.Run(n)
		compareState(t, g, e, ref, fmt.Sprintf("round %d (+%d cycles)", round, n))
	}
}

// A snapshot taken at odd parity reads the right view, restores into both
// views of a fresh engine (whose own parity is even), and the restored
// engine continues bit-identically. The encoded blob does not depend on
// how many views the engine keeps, and neither does restoring depend on
// the dead temp words it carries: a blob with every temp zeroed — what a
// checkpoint from before superinstruction fusion was removed looks like in
// the words the fuser had absorbed — restores and continues identically.
func TestProtocolSnapshotOddParity(t *testing.T) {
	g := randomCircuit(t, 73, 70)
	prog, err := Compile(g, handParts(g, 2, func(sink string) int { return int(sink[len(sink)-1]) % 2 }), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig := NewEngine(prog)
	rng := rand.New(rand.NewSource(73))
	for cyc := 0; cyc < 7; cyc++ {
		pokeAll(t, orig, randomInputs(prog, rng))
		orig.Run(1)
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob := snap.Encode()

	// Pinned from the lines above. Commit 77e354e (two barriers, one view,
	// fusion on) encoded the same 1650 bytes except four temp words that
	// its fuser had absorbed (zero there, a value here); layout, length
	// and fingerprint are unchanged. A compiler change that moves the
	// fingerprint makes the pinned blob meaningless; the round trips below
	// still hold.
	const (
		pinnedFingerprint = uint64(0x822f2e73915283ab)
		pinnedBlobLen     = 1650
		pinnedBlobSum     = uint64(0xbb7e47e5c1335f6c)
	)
	if prog.Fingerprint() != pinnedFingerprint {
		t.Logf("program fingerprint %#x is not the pinned %#x: blob comparison skipped", prog.Fingerprint(), pinnedFingerprint)
	} else if len(blob) != pinnedBlobLen || checksum(blob) != pinnedBlobSum {
		t.Fatalf("encoded blob: %d bytes sum %#x, the single-view engine produced %d bytes sum %#x",
			len(blob), checksum(blob), pinnedBlobLen, pinnedBlobSum)
	}

	// Two restores of the same blob: verbatim, and with every temp zeroed.
	restores := []struct {
		tag      string
		zeroTemp bool
		e        *Engine
	}{{"restore", false, NewEngine(prog)}, {"restore with zeroed temps", true, NewEngine(prog)}}
	for _, r := range restores {
		back, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if r.zeroTemp {
			for _, lt := range prog.Linked().Threads {
				clear(back.Words[lt.TempOff:lt.ShadowOff])
			}
		}
		if err := r.e.RestoreSnapshot(back); err != nil {
			t.Fatal(err)
		}
		compareEngines(t, orig, r.e, "after "+r.tag)
	}
	for cyc := 0; cyc < 9; cyc++ {
		in := randomInputs(prog, rng)
		pokeAll(t, orig, in)
		orig.Run(1)
		for _, r := range restores {
			pokeAll(t, r.e, in)
			r.e.Run(1)
			compareEngines(t, orig, r.e, fmt.Sprintf("cycle %d after %s", cyc, r.tag))
		}
	}
	for _, r := range restores {
		if orig.Cycles() != r.e.Cycles() {
			t.Fatalf("cycle counts diverge after %s: %d vs %d", r.tag, orig.Cycles(), r.e.Cycles())
		}
	}
}

// linkedKernels stands in for compiled plugin kernels: per-thread functions
// with the native ABI that execute the linked stream using only what the
// engine hands a kernel (state slice, memories, the two callbacks).
func linkedKernels(p *Program) []NativeThreadFunc {
	lp := p.Linked()
	fns := make([]NativeThreadFunc, len(lp.Threads))
	for t := range lp.Threads {
		code := lp.Threads[t].Code
		fns[t] = func(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64), wide func(uint32)) {
			gs := &globalState{mems: mems}
			for i := range code {
				switch in := &code[i]; in.Op {
				case OpWide:
					wide(in.Aux)
				case OpMemWr:
					if st[in.C] != 0 {
						memwr(in.Aux, st[in.A], st[in.B]&in.Mask)
					}
				default:
					evalLinked(code[i:i+1], st, p, lp, gs, nil)
				}
			}
		}
	}
	return fns
}

// Kernels installed at odd parity must run over the view the next cycle
// evaluates, with that view's memories and write buffers.
func TestProtocolInstallNativeOddParity(t *testing.T) {
	g := randomCircuit(t, 74, 70)
	prog := partitioned(t, g, 2, 74)
	plain, swapped := NewEngine(prog), NewEngine(prog)
	rng := rand.New(rand.NewSource(74))
	for cyc := 0; cyc < 16; cyc++ {
		if cyc == 5 {
			if err := swapped.InstallNative(linkedKernels(prog)); err != nil {
				t.Fatal(err)
			}
		}
		in := randomInputs(prog, rng)
		pokeAll(t, plain, in)
		pokeAll(t, swapped, in)
		plain.Run(1)
		swapped.Run(1)
		compareEngines(t, plain, swapped, fmt.Sprintf("cycle %d", cyc))
	}
	if !swapped.NativeInstalled() {
		t.Fatal("kernels not installed")
	}
}

// Thread 0 owns the write port of ram and thread 1 reads it: every write
// must be in the view thread 1 evaluates over one cycle later, and stay
// there (the other view catches up a cycle after).
const crossMemSrc = `
circuit X {
  module X {
    input in : UInt<16>
    output out : UInt<16>
    reg wp : UInt<3> init 0
    reg acc : UInt<16> init 0
    mem ram : UInt<16>[8]
    write(ram, wp, xor(in, bits(cat(acc, wp), 15, 0)), UInt<1>(1))
    wp <= tail(add(wp, UInt<3>(1)), 1)
    acc <= tail(add(acc, read(ram, tail(sub(wp, UInt<3>(1)), 1))), 1)
    out <= xor(acc, read(ram, wp))
  }
}
`

func TestProtocolCrossThreadMemory(t *testing.T) {
	g := graphOf(t, crossMemSrc)
	parts := handParts(g, 2, func(sink string) int {
		if sink == "acc" || sink == "out" {
			return 1
		}
		return 0
	})
	for _, opt := range []int{0, 2} {
		prog, err := Compile(g, parts, Config{OptLevel: opt})
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(sharedMems(prog), true) {
			t.Fatal("ram has one writer thread and must not be a shared memory")
		}
		e, ref := NewEngine(prog), NewReference(g)
		rng := rand.New(rand.NewSource(75))
		for cyc := 0; cyc < 40; cyc++ {
			v := rng.Uint64()
			if err := e.PokeInput("in", v); err != nil {
				t.Fatal(err)
			}
			if err := ref.PokeInputUint("in", v); err != nil {
				t.Fatal(err)
			}
			e.Run(1 + cyc%3)
			ref.Run(1 + cyc%3)
			compareState(t, g, e, ref, fmt.Sprintf("O%d step %d", opt, cyc))
		}
	}
}

// The catch-up hazard. Both ports write address 0 of ram, port a on even
// cycles from thread 0 and port b on odd cycles from thread 1. When thread 0
// publishes cycle c it first re-applies its write of cycle c-1 to the other
// view; done concurrently with thread 1's write of cycle c to the same
// word, the older value could land last. Memories with writers in several
// threads are therefore committed by the barrier's last arriver, in cycle
// then thread order.
const catchUpSrc = `
circuit H {
  module H {
    input in : UInt<16>
    output out : UInt<16>
    reg n : UInt<16> init 1
    mem ram : UInt<16>[4]
    node odd = bits(n, 0, 0)
    write(ram, UInt<2>(0), xor(in, n), not(odd))
    write(ram, UInt<2>(0), not(n), odd)
    n <= tail(add(n, UInt<16>(1)), 1)
    out <= read(ram, UInt<2>(0))
  }
}
`

func TestProtocolCatchUpHazard(t *testing.T) {
	g := graphOf(t, catchUpSrc)
	parts := handParts(g, 2, func(sink string) int {
		if sink == "ram$w1" || sink == "out" {
			return 1
		}
		return 0
	})
	prog, err := Compile(g, parts, Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sh := sharedMems(prog); !sh[0] {
		t.Fatalf("ram has write ports in both threads; sharedMems = %v", sh)
	}
	e, ref := NewEngine(prog), NewReference(g)
	rng := rand.New(rand.NewSource(76))
	for cyc := 0; cyc < 60; cyc++ {
		v := rng.Uint64()
		if err := e.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInputUint("in", v); err != nil {
			t.Fatal(err)
		}
		e.Run(1 + cyc%4)
		ref.Run(1 + cyc%4)
		compareState(t, g, e, ref, fmt.Sprintf("step %d", cyc))
	}
}

// The barrier must stay live when the host cannot run every participant
// at once: a waiter that only spun would hold the one P forever.
func TestBarrierLivenessOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, rounds = 4, 2000
	bar := NewBarrier(n)
	lastRuns := 0
	bar.Last = func() { lastRuns++ }
	var arrived [n]int
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var crossing uint32
			for r := 1; r <= rounds; r++ {
				arrived[p] = r
				bar.Wait(&crossing)
				for q := range arrived {
					if arrived[q] < r {
						t.Errorf("round %d: participant %d released before %d arrived", r, p, q)
						return
					}
				}
				bar.Wait(&crossing)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("barrier with 4 participants at GOMAXPROCS=1 did not finish")
	}
	if lastRuns != 2*rounds {
		t.Fatalf("Last ran %d times over %d crossings", lastRuns, 2*rounds)
	}
}

// Wide (boxed) memory writes take the same catch-up path as narrow ones.
func TestProtocolWideMemoryCatchUp(t *testing.T) {
	g := graphOf(t, `
circuit W {
  module W {
    input in : UInt<16>
    output out : UInt<80>
    reg p : UInt<2> init 0
    reg acc : UInt<80> init 0
    mem big : UInt<80>[4]
    write(big, p, cat(in, pad(bits(acc, 63, 0), 64)), UInt<1>(1))
    p <= tail(add(p, UInt<2>(1)), 1)
    acc <= xor(acc, read(big, tail(sub(p, UInt<2>(1)), 1)))
    out <= read(big, p)
  }
}
`)
	parts := handParts(g, 2, func(sink string) int {
		if sink == "acc" || sink == "out" {
			return 1
		}
		return 0
	})
	prog, err := Compile(g, parts, Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, ref := NewEngine(prog), NewReference(g)
	for cyc := 0; cyc < 30; cyc++ {
		v := uint64(cyc*2654435761) & 0xffff
		if err := e.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInputUint("in", v); err != nil {
			t.Fatal(err)
		}
		e.Run(1)
		ref.Step()
		for a := 0; a < 4; a++ {
			ev, _ := e.PeekMemVec("big", a)
			rv, _ := ref.PeekMem("big", a)
			if !bitvec.Eq(ev, rv) {
				t.Fatalf("cycle %d: big[%d] = %v, reference %v", cyc, a, ev, rv)
			}
		}
		compareState(t, g, e, ref, fmt.Sprintf("cycle %d", cyc))
	}
}
