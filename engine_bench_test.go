package repcut

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/sim"
)

// BenchmarkLinkedEngine times the linked engine of each Table-1 design at
// k=2 (the private-array exchange protocol): one op is one simulated
// cycle, with no pokes or peeks, after 100 warm-up cycles. One design:
//
//	go test -run '^$' -bench 'LinkedEngine/RocketChip-1C/' -count 7 .
func BenchmarkLinkedEngine(b *testing.B) {
	for _, cfg := range designs.Table1(1) {
		b.Run(cfg.Name(), func(b *testing.B) {
			var e *sim.Engine // built on the first of the b.N rounds
			b.Run("k2", func(b *testing.B) {
				if e == nil {
					d, err := Elaborate(designs.BuildCircuit(cfg))
					if err != nil {
						b.Fatal(err)
					}
					c, err := d.CompileProgram(Options{Threads: 2})
					if err != nil {
						b.Fatal(err)
					}
					e = sim.NewEngine(c.Program)
					e.Run(100)
				}
				b.ResetTimer()
				e.Run(b.N)
			})
		})
	}
}
