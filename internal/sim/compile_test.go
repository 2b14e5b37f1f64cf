package sim

import (
	"fmt"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/genckt"
)

// The Verilator baseline costs its tasks from VertexInstrs alone, which is
// sound only while a vertex's code does not depend on where it is placed:
// for every thread of a partitioned O0 compile, the serial per-vertex
// counts of the thread's vertices must add up to its code length.
func TestVertexInstrsMatchPartitions(t *testing.T) {
	check := func(name string, g *cgraph.Graph) {
		counts, _, _, err := VertexInstrs(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []int{2, 4} {
			res, err := core.Partition(g, core.Options{K: k, Seed: 1, Model: costmodel.Default(), Epsilon: 0.1})
			if err != nil {
				t.Fatalf("%s k=%d: partition: %v", name, k, err)
			}
			specs := partSpecs(res)
			prog, err := Compile(g, specs, Config{})
			if err != nil {
				t.Fatalf("%s k=%d: compile: %v", name, k, err)
			}
			for th := range specs {
				sum := 0
				for _, v := range specs[th].Vertices {
					sum += counts[v]
				}
				if got := len(prog.Linked().Threads[th].Code); sum != got {
					t.Errorf("%s k=%d thread %d: vertex counts sum to %d, thread has %d instrs", name, k, th, sum, got)
				}
			}
		}
	}
	for _, cfg := range designs.Table1(1.0) {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(cfg.Name(), g)
	}
	for seed := int64(1); seed <= 200; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed}).Build()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("genckt seed %d", seed), d.Graph)
	}
}
