package sim

// Protocol tests for the multi-threaded engine's one-barrier cycle: each
// thread evaluates over its private array and its own memory copies
// (buffering its memory writes in a parity buffer), commits, packs the
// words others read into a parity buffer, crosses the barrier, copies in
// what it reads and applies the memory writes of every thread that writes
// a column it holds. Each test names the hazard or boundary it provokes. CI runs this file under -race at
// GOMAXPROCS 1 and 2 (-run 'Protocol|Barrier').

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
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
// odd or even: the parity buffers restart at every Run call, so where the
// calls split the cycles is the only thing that differs between the two.
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

// Between Run calls every reader's copy of an exchanged word equals the
// owner's, and thread 0's array holds every segment as its owner does, after
// odd and even runs alike.
func TestProtocolExchangeCoherent(t *testing.T) {
	g := randomCircuit(t, 77, 70)
	for _, k := range []int{2, 3} {
		prog := partitioned(t, g, k, 77)
		if slices.Equal(prog.ExchangeWords(), make([]int, k)) {
			t.Fatalf("k=%d: no thread reads another's words", k)
		}
		e := NewEngine(prog)
		rng := rand.New(rand.NewSource(77))
		for round, n := range []int{1, 2, 3, 1, 4, 5} {
			pokeAll(t, e, randomInputs(prog, rng))
			e.Run(n)
			for w := range prog.Exchange {
				for r, words := range prog.Exchange[w] {
					for _, x := range words {
						if e.st[r][x] != e.st[w][x] {
							t.Fatalf("k=%d round %d (+%d cycles): reader %d holds %#x for word %d, owner %d holds %#x",
								k, round, n, r, e.st[r][x], x, w, e.st[w][x])
						}
					}
				}
			}
			for th := range prog.Threads {
				lo, hi := prog.Threads[th].GlobalOff, prog.Threads[th].GlobalOff+prog.Threads[th].ShadowWords
				if !slices.Equal(e.st[0][lo:hi], e.st[th][lo:hi]) {
					t.Fatalf("k=%d round %d: thread 0's copy of thread %d's segment is not the owner's", k, round, th)
				}
			}
		}
	}
}

// PeekReg answers with the owner's value for a register of every thread's
// segment, odd and even cycle counts alike.
func TestProtocolPeekRegEachOwner(t *testing.T) {
	g := randomCircuit(t, 78, 70)
	for _, k := range []int{2, 3} {
		// Sinks dealt round-robin by name, so every thread owns registers.
		var n int
		byName := map[string]int{}
		prog, err := Compile(g, handParts(g, k, func(sink string) int {
			if _, ok := byName[sink]; !ok {
				byName[sink] = n % k
				n++
			}
			return byName[sink]
		}), Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		owner := prog.segmentOwners()
		e, ref := NewEngine(prog), NewReference(g)
		rng := rand.New(rand.NewSource(78))
		for round, n := range []int{1, 2, 3, 4} {
			in := randomInputs(prog, rng)
			pokeAll(t, e, in)
			for name, v := range in {
				if err := ref.PokeInput(name, v); err != nil {
					t.Fatal(err)
				}
			}
			e.Run(n)
			ref.Run(n)
			peeked := make([]bool, k)
			for _, r := range prog.Regs {
				th := owner[r.Slot]
				got, err := e.PeekReg(r.Name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.PeekReg(r.Name)
				if err != nil {
					t.Fatal(err)
				}
				if !bitvec.Eq(got, want) || got.Words[0] != e.st[th][r.Slot] {
					t.Fatalf("k=%d round %d: reg %s of thread %d peeks %v, reference %v, owner's word %#x",
						k, round, r.Name, th, got, want, e.st[th][r.Slot])
				}
				peeked[th] = true
			}
			if slices.Contains(peeked, false) {
				t.Fatalf("k=%d: some thread owns no register: %v", k, peeked)
			}
		}
	}
}

// A snapshot restored into a k=3 engine in the middle of an unrelated run
// (after odd-length runs, with stale exchange and memory-write buffers)
// continues exactly as the engine it was taken from.
func TestProtocolRestoreMidRun(t *testing.T) {
	g := randomCircuit(t, 79, 70)
	prog := partitioned(t, g, 3, 79)
	orig, other := NewEngine(prog), NewEngine(prog)
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{2, 3, 2} {
		pokeAll(t, orig, randomInputs(prog, rng))
		orig.Run(n)
		pokeAll(t, other, randomInputs(prog, rng))
		other.Run(n + 1)
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for round, n := range []int{1, 4, 3, 2} {
		in := randomInputs(prog, rng)
		pokeAll(t, orig, in)
		pokeAll(t, other, in)
		orig.Run(n)
		other.Run(n)
		tag := fmt.Sprintf("round %d after restore", round)
		if orig.StateHash() != other.StateHash() {
			t.Fatalf("%s: state hash %#x uninterrupted, %#x restored", tag, orig.StateHash(), other.StateHash())
		}
		compareEngines(t, orig, other, tag)
	}
}

// A poke lands in every thread's array, after odd-length runs as after
// even ones.
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

// A snapshot taken after an odd number of cycles reads the canonical state
// (each memory column from its lowest holder), restores into every array
// and every held memory copy of a fresh engine, and the restored engine
// continues bit-identically. The encoded
// blob does not depend on how the engine splits its state (its frames are
// zeroed), and restoring
// does not depend on the dead frame words a blob carries: a blob whose
// frames hold stale scratch — what blobs captured before snapshots zeroed
// the frames carry — restores and continues identically.
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

	// Pinned from the lines above, under snapshot version 3 (the framed
	// format) with zeroed frames. The version-2 blob of this engine
	// (testdata/snapshot-v2.bin, 1936 bytes) is the same payload in an RCSN
	// envelope with the state size beside the words, under the fingerprint
	// the tagged code hashed to: from the cycle count on it is this
	// payload byte for byte. The version-1 blob (testdata/snapshot-v1.bin,
	// 1650 bytes) holds the same register, port and memory values word for
	// word; the 70- and 89-bit values and the 96-bit memory sat in its
	// boxed wide sections and are state words and word columns here. A
	// compiler change that moves the fingerprint makes the pinned blob
	// meaningless; the round trips below still hold.
	const (
		pinnedFingerprint = uint64(0x62faac41a2b70854)
		pinnedBlobLen     = 1934
		pinnedBlobSum     = uint64(0x2a6fed0d7b6fb31d)
	)
	if prog.Fingerprint() != pinnedFingerprint {
		t.Logf("program fingerprint %#x is not the pinned %#x: blob comparison skipped", prog.Fingerprint(), pinnedFingerprint)
	} else if len(blob) != pinnedBlobLen || checksum(blob) != pinnedBlobSum {
		t.Fatalf("encoded blob: %d bytes sum %#x, pinned %d bytes sum %#x",
			len(blob), checksum(blob), pinnedBlobLen, pinnedBlobSum)
	} else if v2, err := os.ReadFile("testdata/snapshot-v2.bin"); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(v2[24:len(v2)-8], framePayload(blob)[8:]) {
		t.Fatal("the version-2 blob holds another cycle count, state or memories")
	}

	// Two restores of the same blob: verbatim, and with stale frames.
	restores := []struct {
		tag   string
		stale bool
		e     *Engine
	}{{"restore", false, NewEngine(prog)}, {"restore with stale frames", true, NewEngine(prog)}}
	for _, r := range restores {
		back, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if r.stale {
			for i := prog.Threads[0].TempOff; int(i) < len(back.Words); i++ {
				back.Words[i] = 0x5a5a5a5a5a5a5a5a ^ uint64(i)
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
// engine hands a kernel (state slice, memories, the write callback).
func linkedKernels(p *Program) []NativeThreadFunc {
	fns := make([]NativeThreadFunc, len(p.Threads))
	for t := range p.Threads {
		code := p.Threads[t].Code
		fns[t] = func(st []uint64, mems [][]uint64, memwr func(uint32, uint64, uint64)) {
			gs := &globalState{mems: mems}
			for i := range code {
				if in := &code[i]; in.Op == OpMemWr {
					if st[in.C] != 0 {
						memwr(in.Aux, st[in.A], st[in.B]&in.Mask)
					}
				} else {
					evalLinked(code[i:i+1], st, gs, nil)
				}
			}
		}
	}
	return fns
}

// Kernels installed between odd-length runs must leave the state as it was
// and run with each thread's own memory copies and write buffers.
func TestProtocolInstallNativeOddParity(t *testing.T) {
	g := randomCircuit(t, 74, 70)
	prog := partitioned(t, g, 2, 74)
	plain, swapped := NewEngine(prog), NewEngine(prog)
	rng := rand.New(rand.NewSource(74))
	for step := 0; step < 16; step++ {
		if step == 5 {
			before := swapped.StateHash()
			if err := swapped.InstallNative(linkedKernels(prog)); err != nil {
				t.Fatal(err)
			}
			if swapped.StateHash() != before {
				t.Fatal("InstallNative changed the state")
			}
		}
		in := randomInputs(prog, rng)
		pokeAll(t, plain, in)
		pokeAll(t, swapped, in)
		n := 1 + 2*(step%2) // runs of 1 and 3 cycles
		plain.Run(n)
		swapped.Run(n)
		compareEngines(t, plain, swapped, fmt.Sprintf("step %d", step))
	}
	if !swapped.NativeInstalled() {
		t.Fatal("kernels not installed")
	}
}

// Thread 0 owns the write port of ram and thread 1 reads it: every write
// must be in thread 1's copy when it evaluates the next cycle, and stay
// there.
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

// Two threads write one word. Both ports write address 0 of ram, port a on
// even cycles from thread 0 and port b on odd cycles from thread 1. Both
// threads hold ram and apply both threads' write buffers every cycle, in
// thread order, so both copies see every write in the same order and a
// cycle's value never lands before the previous cycle's.
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

// Two threads write one word in the same cycle: every holder applies the
// write buffers in thread order, so thread 1's write wins on every copy —
// the order the verifier's cross-thread-writers warning states.
func TestProtocolSameCycleWriters(t *testing.T) {
	g := graphOf(t, `
circuit S {
  module S {
    input in : UInt<16>
    output out : UInt<16>
    reg n : UInt<16> init 1
    mem ram : UInt<16>[4]
    write(ram, UInt<2>(0), xor(in, n), UInt<1>(1))
    write(ram, UInt<2>(0), not(n), UInt<1>(1))
    n <= tail(add(n, UInt<16>(1)), 1)
    out <= read(ram, UInt<2>(0))
  }
}
`)
	prog, err := Compile(g, handParts(g, 2, func(sink string) int {
		if sink == "ram$w1" || sink == "out" {
			return 1
		}
		return 0
	}), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, ref := NewEngine(prog), NewReference(g)
	for cyc := 0; cyc < 20; cyc++ {
		v := uint64(cyc * 40503)
		if err := e.PokeInput("in", v); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInputUint("in", v); err != nil {
			t.Fatal(err)
		}
		e.Run(1 + cyc%3)
		ref.Run(1 + cyc%3)
		n, _ := e.PeekReg("n")
		if got, err := e.PeekMem("ram", 0); err != nil || got != ^(n.Words[0]-1)&0xffff {
			t.Fatalf("step %d: ram[0] = %#x (%v), thread 1's write is %#x", cyc, got, err, ^(n.Words[0]-1)&0xffff)
		}
		compareState(t, g, e, ref, fmt.Sprintf("step %d", cyc))
	}
}

// The barrier must stay live when the host cannot run every participant
// at once: a waiter that only spun would hold the one P forever.
func TestBarrierLivenessOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, rounds = 4, 2000
	bar := NewBarrier(n)
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
}

// Writes to a wide memory's word columns cross threads like narrow ones.
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

// Thread 1 owns the write port of ram, thread 0 reads it and thread 2 never
// touches it: the reader is the lowest holder, so its copy is the one Peek,
// StateHash and Snapshot read, and it is current only through the writes
// it applies from thread 1's buffer after each barrier.
const readerFirstSrc = `
circuit R {
  module R {
    input in : UInt<16>
    output out : UInt<16>
    output cnt : UInt<8>
    reg wp : UInt<3> init 0
    reg acc : UInt<16> init 0
    reg n : UInt<8> init 0
    mem ram : UInt<16>[8]
    write(ram, wp, xor(in, cat(n, n)), UInt<1>(1))
    wp <= tail(add(wp, UInt<3>(1)), 1)
    acc <= tail(add(acc, read(ram, tail(sub(wp, UInt<3>(1)), 1))), 1)
    out <= xor(acc, read(ram, wp))
    n <= tail(add(n, bits(in, 7, 0)), 1)
    cnt <= n
  }
}
`

func TestProtocolReaderIsLowestHolder(t *testing.T) {
	g := graphOf(t, readerFirstSrc)
	prog, err := Compile(g, handParts(g, 3, func(sink string) int {
		switch sink {
		case "acc", "out":
			return 0
		case "n", "cnt":
			return 2
		}
		return 1
	}), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, ref := NewEngine(prog), NewReference(g)
	if e.gs[0].mems[0] == nil || e.gs[1].mems[0] == nil || e.gs[2].mems[0] != nil {
		t.Fatal("ram must be held by threads 0 and 1 only")
	}
	if !slices.Equal(e.writers[0], []int{1}) {
		t.Fatalf("thread 0 applies the writes of threads %v, want [1]", e.writers[0])
	}
	engines := []*Engine{e} // and, from round 9 on, a restored copy
	rng := rand.New(rand.NewSource(78))
	for round := 0; round < 24; round++ {
		v := rng.Uint64()
		if err := ref.PokeInputUint("in", v); err != nil {
			t.Fatal(err)
		}
		n := 1 + 2*(round%3) // runs of 1, 3 and 5 cycles
		ref.Run(n)
		for _, x := range engines {
			if err := x.PokeInput("in", v); err != nil {
				t.Fatal(err)
			}
			x.Run(n)
		}
		if round == 9 {
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored := NewEngine(prog)
			restored.Run(3) // leave it somewhere else first
			if err := restored.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			engines = append(engines, restored)
		}
		for i, x := range engines {
			tag := fmt.Sprintf("round %d engine %d", round, i)
			for a := 0; a < 8; a++ {
				rv, _ := ref.PeekMem("ram", a)
				if ev, err := x.PeekMem("ram", a); err != nil || ev != rv.Words[0] {
					t.Fatalf("%s: ram[%d] = %#x (%v), reference %v", tag, a, ev, err, rv)
				}
			}
			compareState(t, g, x, ref, tag)
		}
	}
}

// A memory no thread's code touches — one without ports, or whose only
// read was optimised away — is still part of the state: thread 0 holds it,
// so it peeks, hashes and snapshots like any other column.
func TestProtocolUntouchedMemory(t *testing.T) {
	g := graphOf(t, `
circuit U {
  module U {
    input in : UInt<8>
    output out : UInt<8>
    reg r : UInt<8> init 3
    mem idle : UInt<8>[4]
    mem dead : UInt<8>[2]
    node x = read(dead, UInt<1>(1))
    r <= xor(r, in)
    out <= r
  }
}
`)
	for _, k := range []int{1, 2} {
		prog, err := Compile(g, handParts(g, k, func(sink string) int {
			if sink == "out" {
				return k - 1
			}
			return 0
		}), Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		holds, _ := prog.memHolders()
		for m := range prog.Mems {
			for th := range prog.Threads {
				for _, in := range prog.Threads[th].Code {
					if (in.Op == OpMemRd || in.Op == OpMemWr) && int(in.Aux) == m {
						t.Fatalf("k=%d: thread %d touches column %d; the test needs untouched columns", k, th, m)
					}
				}
			}
			if !holds[0][m] {
				t.Fatalf("k=%d: untouched column %d has no holder", k, m)
			}
		}
		e, ref := NewEngine(prog), NewReference(g)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, mi := range prog.Memories() {
			if len(snap.Mems[mi]) != prog.Mems[mi].Depth {
				t.Fatalf("k=%d: snapshot column %d has %d words", k, mi, len(snap.Mems[mi]))
			}
		}
		if err := e.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if err := e.PokeInput("in", 5); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInputUint("in", 5); err != nil {
			t.Fatal(err)
		}
		e.Run(3)
		ref.Run(3)
		compareState(t, g, e, ref, fmt.Sprintf("k=%d", k))
	}
}
