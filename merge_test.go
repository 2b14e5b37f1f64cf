package repcut

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/designs"
)

// TestElaborateMergePreservesState pins what Elaborate's redundant-node
// merge may and may not change on every bundled design: the simulated
// state after 200 cycles of shared random stimulus is identical to the
// unmerged designs.Build graph's, every merged program is strictly
// shorter, and the merge accounts for every vertex it removed.
func TestElaborateMergePreservesState(t *testing.T) {
	for _, cfg := range designs.Table1(1.0) {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Elaborate(designs.BuildCircuit(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.Stats(), g.Stats(); got != want {
			t.Errorf("%s: Design.Stats %+v, want designs.Build's %+v", cfg.Name(), got, want)
		}
		if got := d.Graph.Stats(); got.Merged == 0 || got.IRNodes+got.Merged != g.Stats().IRNodes {
			t.Errorf("%s: merged IRNodes %d + Merged %d, want %d", cfg.Name(), got.IRNodes, got.Merged, g.Stats().IRNodes)
		}
		unmerged := &Design{Graph: g}
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-k%d", cfg.Name(), k), func(t *testing.T) {
				cm, err := d.CompileProgram(Options{Threads: k})
				if err != nil {
					t.Fatal(err)
				}
				cu, err := unmerged.CompileProgram(Options{Threads: k})
				if err != nil {
					t.Fatal(err)
				}
				if m, u := cm.Program.TotalInstrs(), cu.Program.TotalInstrs(); m >= u {
					t.Errorf("merged program has %d instrs, unmerged %d", m, u)
				}
				em, eu := cm.NewSimulator(), cu.NewSimulator()
				rng := rand.New(rand.NewSource(int64(k)))
				for cyc := 0; cyc < 200; cyc++ {
					for _, in := range cm.Program.Inputs {
						if in.Width > 64 {
							continue
						}
						v := rng.Uint64()
						if err := em.PokeInput(in.Name, v); err != nil {
							t.Fatal(err)
						}
						if err := eu.PokeInput(in.Name, v); err != nil {
							t.Fatal(err)
						}
					}
					em.Run(1)
					eu.Run(1)
				}
				if m, u := em.StateHash(), eu.StateHash(); m != u {
					t.Fatalf("state hash after 200 cycles: merged %#x, unmerged %#x", m, u)
				}
			})
		}
	}
}
