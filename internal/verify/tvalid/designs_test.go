package tvalid

// End-to-end proof obligation over the bundled SoC designs: every
// optimization the pipeline performs (O2 const-fold + copy-prop, truncation
// fusion, linking) must be provably equivalent to the O0 reference on real
// processor-shaped circuits, serial and partitioned.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/sim"
)

func TestValidateBundledDesigns(t *testing.T) {
	cfgs := []designs.Config{
		{Kind: designs.Rocket, Cores: 1, Scale: 0.5},
		{Kind: designs.Rocket, Cores: 2, Scale: 0.5},
		{Kind: designs.SmallBoom, Cores: 1, Scale: 0.5},
		{Kind: designs.LargeBoom, Cores: 1, Scale: 0.5},
		{Kind: designs.LargeBoom, Cores: 2, Scale: 0.5},
		{Kind: designs.MegaBoom, Cores: 1, Scale: 0.5},
	}
	if testing.Short() {
		cfgs = cfgs[:3]
	}
	for _, cfg := range cfgs {
		g, err := designs.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/k%d", cfg.Name(), k), func(t *testing.T) {
				var specs []sim.PartSpec
				if k == 1 {
					specs = sim.SerialSpec(g)
				} else {
					res, err := core.Partition(g, core.Options{K: k, Seed: 1, Model: costmodel.Default()})
					if err != nil {
						t.Fatal(err)
					}
					specs = make([]sim.PartSpec, len(res.Parts))
					for i := range res.Parts {
						specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
					}
				}
				p2, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
				if err != nil {
					t.Fatal(err)
				}
				p0, err := sim.Compile(g, specs, sim.Config{OptLevel: 0})
				if err != nil {
					t.Fatal(err)
				}
				r := Validate(p0, p2, Options{})
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				if r.Pairs == 0 || r.Proved+r.Probed != r.Pairs {
					t.Fatalf("implausible certificate: %s", r)
				}
				t.Log(r)
			})
		}
	}
}
