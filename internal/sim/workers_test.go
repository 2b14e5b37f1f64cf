package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/bitvec"
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

// Compiled programs must be bit-identical across compile worker counts and
// across repeated compiles, for every optimization level and both the
// partitioned and serial paths.
func TestCompileWorkerEquivalence(t *testing.T) {
	g := randomCircuit(t, 77, 160)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 9, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	specs := partSpecs(res)
	for _, opt := range []int{0, 1, 2} {
		base, err := Compile(g, specs, Config{OptLevel: opt, Workers: 1})
		if err != nil {
			t.Fatalf("opt=%d serial: %v", opt, err)
		}
		baseFP := base.Fingerprint()
		for _, workers := range []int{1, 2, 8, 0} {
			for run := 0; run < 2; run++ {
				got, err := Compile(g, specs, Config{OptLevel: opt, Workers: workers})
				if err != nil {
					t.Fatalf("opt=%d workers=%d run=%d: %v", opt, workers, run, err)
				}
				if fp := got.Fingerprint(); fp != baseFP {
					t.Fatalf("opt=%d workers=%d run=%d: fingerprint %x differs from serial %x",
						opt, workers, run, fp, baseFP)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("opt=%d workers=%d run=%d: program differs from serial compile", opt, workers, run)
				}
			}
		}
	}
}

// Shared (Verilator-style) compilation always runs serially under the hood;
// requesting workers must not change its output.
func TestCompileSharedWorkerEquivalence(t *testing.T) {
	g := randomCircuit(t, 31, 120)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 2, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	specs := partSpecs(res)
	base, err := Compile(g, specs, Config{Shared: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compile(g, specs, Config{Shared: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != got.Fingerprint() || !reflect.DeepEqual(base, got) {
		t.Fatal("shared-mode program differs across worker settings")
	}
}

// A parallel-compiled program must still simulate identically to the
// reference evaluator (end-to-end check that the merge phase renumbers
// immediates correctly).
func TestParallelCompileMatchesReference(t *testing.T) {
	g := randomCircuit(t, 55, 140)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 4, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
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
		compareState(t, g, eng, ref, "parallel-compiled")
	}
}
