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
				if got := len(prog.Threads[th].Code); sum != got {
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

// The optimising emitter's output is pinned on the 12 merged Table-1
// designs (what repcut.Elaborate builds) at k=1, O0 and O2, and its
// postconditions hold on the linked code of 200 generated circuits: no
// local temp is defined and never read, none is defined by a pure op on
// immediates only, and no copy is the only reader of a local whose producer could have
// taken the copy's mask and destination.
func TestOptimisedEmission(t *testing.T) {
	want := [][2]int{ // {O0, O2} instructions, in Table1 order
		{1508, 1140}, {2763, 2068}, {5273, 3924},
		{1652, 1277}, {3051, 2342}, {5849, 4472},
		{3500, 2878}, {6747, 5544}, {13241, 10876},
		{4749, 3979}, {9245, 7746}, {18237, 15280},
	}
	cfgs := designs.Table1(1.0)
	if len(cfgs) != len(want) {
		t.Fatalf("%d designs, want %d", len(cfgs), len(want))
	}
	for i, cfg := range cfgs {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Merge()
		for j, level := range []int{0, 2} {
			p, err := Compile(g, SerialSpec(g), Config{OptLevel: level})
			if err != nil {
				t.Fatal(err)
			}
			if got := p.TotalInstrs(); got != want[i][j] {
				t.Errorf("%s O%d: %d instrs, want %d", cfg.Name(), level, got, want[i][j])
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		d, err := genckt.Generate(genckt.Config{Seed: seed, Size: 60}).Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(d.Graph, SerialSpec(d.Graph), Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		// temp reports which of its thread's temps a linked operand is.
		temp := func(idx uint32) (uint32, bool) {
			loc, _, ok := p.LinkedLoc(idx)
			return loc.Idx, ok && loc.Space == SpaceLocal
		}
		for ti, th := range p.Threads {
			readers := make([]int, th.NumTemps)
			def := make([]int, th.NumTemps)
			for pc, in := range th.Code {
				refs := [3]uint32{in.A, in.B, in.C}
				for _, r := range refs[:TraitsOf(in.Op).Reads] {
					if i, ok := temp(r); ok {
						readers[i]++
					}
				}
				if i, ok := temp(in.Dst); ok && definesDst(in.Op) {
					def[i] = pc
				}
			}
			for pc, in := range th.Code {
				tr := TraitsOf(in.Op)
				allImm := tr.Reads > 0
				refs := [3]uint32{in.A, in.B, in.C}
				for _, r := range refs[:tr.Reads] {
					loc, _, _ := p.LinkedLoc(r)
					allImm = allImm && loc.Space == SpaceImm
				}
				dst, local := temp(in.Dst)
				local = local && definesDst(in.Op)
				src, fromTemp := temp(in.A)
				where := fmt.Sprintf("genckt seed %d thread %d pc %d (%v)", seed, ti, pc, in.Op)
				switch {
				case local && readers[dst] == 0:
					t.Errorf("%s: defines temp %d, which nothing reads", where, dst)
				case local && tr.Pure && allImm:
					t.Errorf("%s: defines a temp from immediates only", where)
				case in.Op == OpCopy && fromTemp && readers[src] == 1 && TraitsOf(th.Code[def[src]].Op).MaskFusable:
					t.Errorf("%s: copy of temp %d is its only reader, not fused into its producer", where, src)
				}
			}
		}
	}
}
