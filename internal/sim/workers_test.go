package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// threadCtx values are stored contiguously (one per simulation thread) and
// written concurrently, so each must occupy whole cache lines.
func TestThreadCtxCacheLineAligned(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(threadCtx{}); sz%line != 0 {
		t.Fatalf("threadCtx is %d bytes, not a multiple of the %d-byte cache line; adjust the pad", sz, line)
	}
}

// Compiled programs must be bit-identical for every GOMAXPROCS (which sizes
// the compile pool) and across repeated compiles, at every optimization
// level.
func TestCompileWorkerEquivalence(t *testing.T) {
	g := randomCircuit(t, 77, 160)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 9, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	specs := partSpecs(res)
	def := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	for _, opt := range []int{0, 2} {
		runtime.GOMAXPROCS(1)
		base, err := Compile(g, specs, Config{OptLevel: opt})
		if err != nil {
			t.Fatalf("opt=%d serial: %v", opt, err)
		}
		baseFP := base.Fingerprint()
		for _, procs := range []int{1, 2, 8, def} {
			runtime.GOMAXPROCS(procs)
			for run := 0; run < 2; run++ {
				got, err := Compile(g, specs, Config{OptLevel: opt})
				if err != nil {
					t.Fatalf("opt=%d GOMAXPROCS=%d run=%d: %v", opt, procs, run, err)
				}
				if fp := got.Fingerprint(); fp != baseFP {
					t.Fatalf("opt=%d GOMAXPROCS=%d run=%d: fingerprint %x differs from serial %x",
						opt, procs, run, fp, baseFP)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("opt=%d GOMAXPROCS=%d run=%d: program differs from serial compile", opt, procs, run)
				}
			}
		}
	}
}

// A program compiled at any GOMAXPROCS must still simulate identically to
// the reference evaluator (end-to-end check that the merge phase renumbers
// immediates correctly).
func TestParallelCompileMatchesReference(t *testing.T) {
	g := randomCircuit(t, 55, 140)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 4, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	def := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(def) })
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
		runtime.GOMAXPROCS(def)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		simulateAgainstReference(t, g, prog, fmt.Sprintf("compiled at GOMAXPROCS=%d", procs))
	}
}

// simulateAgainstReference runs prog and the reference evaluator in lock
// step for 50 cycles of random stimulus, comparing all state every cycle.
func simulateAgainstReference(t *testing.T, g *cgraph.Graph, prog *Program, label string) {
	t.Helper()
	eng := NewEngine(prog)
	ref := NewReference(g)
	rng := rand.New(rand.NewSource(913))
	for cyc := 0; cyc < 50; cyc++ {
		v1 := rng.Uint64()
		w := bitvec.New(70)
		for j := range w.Words {
			w.Words[j] = rng.Uint64()
		}
		w = bitvec.ZeroExtend(70, w)
		if err := eng.PokeInput("in1", v1); err != nil {
			t.Fatal(err)
		}
		if err := eng.PokeInputVec("in2", w); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInputUint("in1", v1); err != nil {
			t.Fatal(err)
		}
		if err := ref.PokeInput("in2", w); err != nil {
			t.Fatal(err)
		}
		eng.Run(1)
		ref.Step()
		compareState(t, g, eng, ref, label)
	}
}
