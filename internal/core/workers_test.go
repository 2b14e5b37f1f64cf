package core

import (
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Partitioning must be bit-identical across worker counts and across
// repeated runs: same parts, same per-sink assignment, same metrics.
func TestPartitionWorkerEquivalence(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(48, 5))
	for _, k := range []int{2, 4, 7} {
		base, err := Partition(g, Options{K: k, Seed: 3, Model: costmodel.Default(), Workers: 1})
		if err != nil {
			t.Fatalf("k=%d serial: %v", k, err)
		}
		if err := verifyCompiled(g, base); err != nil {
			t.Fatalf("k=%d serial verify: %v", k, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := Partition(g, Options{K: k, Seed: 3, Model: costmodel.Default(), Workers: workers})
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if !reflect.DeepEqual(base.PartOfSink, got.PartOfSink) {
				t.Fatalf("k=%d workers=%d: sink assignment differs from serial", k, workers)
			}
			for p := range base.Parts {
				if !reflect.DeepEqual(base.Parts[p].Vertices, got.Parts[p].Vertices) {
					t.Fatalf("k=%d workers=%d: part %d vertex list differs", k, workers, p)
				}
				if !reflect.DeepEqual(base.Parts[p].Sinks, got.Parts[p].Sinks) {
					t.Fatalf("k=%d workers=%d: part %d sink list differs", k, workers, p)
				}
				if base.Parts[p].Weight != got.Parts[p].Weight {
					t.Fatalf("k=%d workers=%d: part %d weight differs", k, workers, p)
				}
			}
			if got.CutCost != base.CutCost || got.ReplicatedVertices != base.ReplicatedVertices {
				t.Fatalf("k=%d workers=%d: metrics differ (cut %d vs %d, repl %d vs %d)",
					k, workers, got.CutCost, base.CutCost, got.ReplicatedVertices, base.ReplicatedVertices)
			}
		}
	}
}

// The static verifier is an independent oracle for PR 1's determinism
// claim: for every worker count the compiled program must not only be
// fingerprint-identical but also *provably sound* — race-free, closed, and
// well-scheduled. A worker-count-dependent scheduling bug that happened to
// keep the fingerprint stable would still have to survive a full soundness
// proof to slip through.
func TestWorkersVerifiedByStaticAnalyzer(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(48, 5))
	var baseFP uint64
	for i, workers := range []int{0, 1, 2, 8} {
		res, err := Partition(g, Options{
			K: 4, Seed: 3, Model: costmodel.Default(), Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		parts := make([]sim.PartSpec, len(res.Parts))
		for p := range res.Parts {
			parts[p] = sim.PartSpec{Vertices: res.Parts[p].Vertices, Sinks: res.Parts[p].Sinks}
		}
		prog, err := sim.Compile(g, parts, sim.Config{OptLevel: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d compile: %v", workers, err)
		}
		rep := verify.Program(prog, verify.Options{Graph: g, Parts: parts})
		if err := rep.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := prog.Fingerprint()
		if i == 0 {
			baseFP = fp
		} else if fp != baseFP {
			t.Fatalf("workers=%d: fingerprint %#x differs from workers=0 %#x", workers, fp, baseFP)
		}
	}
}

// Default worker count (0 = all cores) must agree with the serial path too.
func TestPartitionDefaultWorkersMatchSerial(t *testing.T) {
	g := mustGraph(t, randomPipelineSrc(32, 11))
	serial, err := Partition(g, Options{K: 4, Seed: 8, Model: costmodel.Default(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Partition(g, Options{K: 4, Seed: 8, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.PartOfSink, auto.PartOfSink) {
		t.Fatal("default-worker partition differs from serial")
	}
}
