package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sim"
	"repro/internal/verify"
)

// setProcs sets GOMAXPROCS, which sizes the pipeline's worker pool, until
// the next call or the end of t, when the value t started with comes back.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// Partitioning must be bit-identical for every GOMAXPROCS and across
// repeated runs: same parts, same per-sink assignment, same metrics.
func TestPartitionWorkerEquivalence(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(48, 5))
	for _, k := range []int{2, 4, 7} {
		setProcs(t, 1)
		base, err := Partition(g, Options{K: k, Seed: 3, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("k=%d serial: %v", k, err)
		}
		if err := verifyCompiled(g, base); err != nil {
			t.Fatalf("k=%d serial verify: %v", k, err)
		}
		for _, procs := range []int{1, 2, 8} {
			setProcs(t, procs)
			got, err := Partition(g, Options{K: k, Seed: 3, Model: costmodel.Default()})
			if err != nil {
				t.Fatalf("k=%d GOMAXPROCS=%d: %v", k, procs, err)
			}
			if !reflect.DeepEqual(base.PartOfSink, got.PartOfSink) {
				t.Fatalf("k=%d GOMAXPROCS=%d: sink assignment differs from serial", k, procs)
			}
			for p := range base.Parts {
				if !reflect.DeepEqual(base.Parts[p].Vertices, got.Parts[p].Vertices) {
					t.Fatalf("k=%d GOMAXPROCS=%d: part %d vertex list differs", k, procs, p)
				}
				if !reflect.DeepEqual(base.Parts[p].Sinks, got.Parts[p].Sinks) {
					t.Fatalf("k=%d GOMAXPROCS=%d: part %d sink list differs", k, procs, p)
				}
				if base.Parts[p].Weight != got.Parts[p].Weight {
					t.Fatalf("k=%d GOMAXPROCS=%d: part %d weight differs", k, procs, p)
				}
			}
			if got.CutCost != base.CutCost || got.ReplicatedVertices != base.ReplicatedVertices {
				t.Fatalf("k=%d GOMAXPROCS=%d: metrics differ (cut %d vs %d, repl %d vs %d)",
					k, procs, got.CutCost, base.CutCost, got.ReplicatedVertices, base.ReplicatedVertices)
			}
		}
	}
}

// The static verifier is an independent oracle for the determinism claim:
// at every GOMAXPROCS the compiled program must not only be
// fingerprint-identical but also *provably sound* — race-free, closed, and
// well-scheduled. A GOMAXPROCS-dependent scheduling bug that happened to
// keep the fingerprint stable would still have to survive a full soundness
// proof to slip through.
func TestWorkersVerifiedByStaticAnalyzer(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(48, 5))
	var baseFP uint64
	for i, procs := range []int{runtime.GOMAXPROCS(0), 1, 2, 8} {
		setProcs(t, procs)
		res, err := Partition(g, Options{K: 4, Seed: 3, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		parts := make([]sim.PartSpec, len(res.Parts))
		for p := range res.Parts {
			parts[p] = sim.PartSpec{Vertices: res.Parts[p].Vertices, Sinks: res.Parts[p].Sinks}
		}
		prog, err := sim.Compile(g, parts, sim.Config{OptLevel: 2})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d compile: %v", procs, err)
		}
		rep := verify.Program(prog, verify.Options{Graph: g, Parts: parts})
		if err := rep.Err(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		fp := prog.Fingerprint()
		if i == 0 {
			baseFP = fp
		} else if fp != baseFP {
			t.Fatalf("GOMAXPROCS=%d: fingerprint %#x differs from the default's %#x", procs, fp, baseFP)
		}
	}
}

// The default GOMAXPROCS must agree with the serial path too.
func TestPartitionDefaultWorkersMatchSerial(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(32, 11))
	def := runtime.GOMAXPROCS(0)
	setProcs(t, 1)
	serial, err := Partition(g, Options{K: 4, Seed: 8, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, def)
	auto, err := Partition(g, Options{K: 4, Seed: 8, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.PartOfSink, auto.PartOfSink) {
		t.Fatal("default-GOMAXPROCS partition differs from serial")
	}
}
