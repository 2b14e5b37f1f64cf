package tvalid

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/sim"
)

// BenchmarkValidateMegaBoom times one full translation-validation pass over
// the largest bundled design (MegaBOOM-4C, 4 partitions): symbolic
// execution of both streams, hash-consing, and sink comparison. This is the
// number the ≤25% compile-overhead budget rides on, so regressions here show
// up directly in the benchmark's verify.tvalid_ms.
func BenchmarkValidateMegaBoom(b *testing.B) {
	g, err := designs.Build(designs.Config{Kind: designs.MegaBoom, Cores: 4, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Partition(g, core.Options{K: 4, Seed: 1, Model: costmodel.Default()})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]sim.PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = sim.PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
	}
	p2, err := sim.Compile(g, specs, sim.Config{OptLevel: 2})
	if err != nil {
		b.Fatal(err)
	}
	p2.Linked()
	p0, err := sim.Compile(g, specs, sim.Config{OptLevel: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Validate(p0, p2, Options{})
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}
