package core

// Dereplication post-pass tests: the pass must strictly reduce realized
// replication on bundled designs at realistic thread counts, compile to a
// program the static verifier proves closed and race-free, and
// stay bit-identical across worker counts — the greedy loop and the
// rebuild are sorted everywhere a map could leak iteration order.

import (
	"reflect"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/costmodel"
	"repro/internal/designs"
)

func mustDesign(t *testing.T, name string) *cgraph.Graph {
	t.Helper()
	cfg, err := designs.ParseName(name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := designs.Build(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

// TestDerepReducesReplication is the headline acceptance claim: at k >= 8
// the post-pass demotes register groups on bundled designs and the
// realized replication cost strictly drops, with the rebuilt partition
// compiling to a program the static verifier proves sound.
func TestDerepReducesReplication(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"RocketChip-1C", 16},
		{"RocketChip-4C", 24},
	} {
		g := mustDesign(t, tc.name)
		base, err := Partition(g, Options{K: tc.k, Seed: 1, Model: costmodel.Default()})
		if err != nil {
			t.Fatalf("%s k=%d base: %v", tc.name, tc.k, err)
		}
		res, err := Partition(g, Options{K: tc.k, Seed: 1, Model: costmodel.Default(), Derep: true})
		if err != nil {
			t.Fatalf("%s k=%d derep: %v", tc.name, tc.k, err)
		}
		if err := verifyCompiled(g, res); err != nil {
			t.Fatalf("%s k=%d derep: %v", tc.name, tc.k, err)
		}
		if len(res.Dereps) == 0 {
			t.Fatalf("%s k=%d: dereplication found nothing to demote", tc.name, tc.k)
		}
		if res.DerepRegs < len(res.Dereps) {
			t.Fatalf("%s k=%d: %d groups demote only %d registers", tc.name, tc.k, len(res.Dereps), res.DerepRegs)
		}
		if res.ReplicationCost >= base.ReplicationCost {
			t.Fatalf("%s k=%d: replication cost %.4f did not drop below baseline %.4f",
				tc.name, tc.k, res.ReplicationCost, base.ReplicationCost)
		}
		t.Logf("%s k=%d: replication %.4f -> %.4f (%d groups, %d regs)",
			tc.name, tc.k, base.ReplicationCost, res.ReplicationCost, len(res.Dereps), res.DerepRegs)
	}
}

// TestDerepDeterministicAcrossWorkers pins the pass's output across
// GOMAXPROCS values: identical groups, identical rebuilt parts.
func TestDerepDeterministicAcrossWorkers(t *testing.T) {
	g := mustDesign(t, "RocketChip-1C")
	setProcs(t, 1)
	base, err := Partition(g, Options{K: 16, Seed: 1, Model: costmodel.Default(), Derep: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Dereps) == 0 {
		t.Fatal("dereplication found nothing to demote; the test proves nothing")
	}
	for _, procs := range []int{2, 8} {
		setProcs(t, procs)
		got, err := Partition(g, Options{K: 16, Seed: 1, Model: costmodel.Default(), Derep: true})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(base.Dereps, got.Dereps) {
			t.Fatalf("GOMAXPROCS=%d: derep groups differ from serial", procs)
		}
		for p := range base.Parts {
			if !reflect.DeepEqual(base.Parts[p].Vertices, got.Parts[p].Vertices) {
				t.Fatalf("GOMAXPROCS=%d: part %d vertex list differs", procs, p)
			}
		}
		if got.ReplicationCost != base.ReplicationCost {
			t.Fatalf("GOMAXPROCS=%d: replication cost %.6f differs from serial %.6f",
				procs, got.ReplicationCost, base.ReplicationCost)
		}
	}
}
